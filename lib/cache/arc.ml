open Agg_util

module Core = struct
  (* Arena-backed ARC: T1, T2 and the ghost lists B1, B2 are four lists
     of one Dlist_arena, and one direct-index table maps every resident
     or ghost key to [(node lsl 2) lor list id]. A key keeps its node
     while it moves between lists, so an access is a table probe plus
     O(1) relinks; lengths are counted per list. *)

  module A = Dlist_arena

  (* list ids *)
  let t1 = 0
  let t2 = 1
  let b1 = 2
  let b2 = 3

  type t = {
    capacity : int;
    arena : A.t;
    lists : A.list_ array; (* by list id *)
    len : int array; (* by list id *)
    index : Int_table.t; (* resident and ghost keys -> (node lsl 2) lor list id *)
    mutable p : int; (* adaptation target for |T1| *)
  }

  let policy_name = "arc"

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Arc.create: capacity must be positive";
    let arena = A.create ~capacity:((2 * capacity) + 5) () in
    {
      capacity;
      arena;
      lists = Array.init 4 (fun _ -> A.new_list arena);
      len = Array.make 4 0;
      index = Int_table.create ~capacity:(2 * capacity) ();
      p = 0;
    }

  let capacity t = t.capacity
  let size t = t.len.(t1) + t.len.(t2)

  let mem t key =
    let v = Int_table.get t.index key in
    v >= 0 && v land 3 <= t2

  (* Relinks [key], whose table entry is [v], to the front or back of
     list [l]. *)
  let relink t key v l ~front =
    let node = v lsr 2 in
    if front then A.move_to_front t.arena t.lists.(l) node
    else A.move_to_back t.arena t.lists.(l) node;
    t.len.(v land 3) <- t.len.(v land 3) - 1;
    t.len.(l) <- t.len.(l) + 1;
    Int_table.set t.index key ((node lsl 2) lor l)

  let drop_ghost_lru t ghost =
    let key = A.pop_back t.arena t.lists.(ghost) in
    if key >= 0 then begin
      Int_table.remove t.index key;
      t.len.(ghost) <- t.len.(ghost) - 1
    end

  (* Moves the LRU key of [source] to the front of [ghost]; -1 when
     [source] is empty. *)
  let demote_lru t source ghost =
    let node = A.last t.arena t.lists.(source) in
    if node = A.nil then -1
    else begin
      let key = A.key t.arena node in
      relink t key ((node lsl 2) lor source) ghost ~front:true;
      key
    end

  (* ARC's REPLACE: evict from T1 into ghost B1 when T1 exceeds the target,
     otherwise from T2 into B2. Returns the evicted (resident) key. *)
  let replace t ~hit_in_b2 =
    let t1_len = t.len.(t1) in
    let from_t1 = t1_len >= 1 && (t1_len > t.p || (hit_in_b2 && t1_len = t.p)) in
    let victim = if from_t1 then demote_lru t t1 b1 else demote_lru t t2 b2 in
    (* the chosen list was empty; take the other one *)
    let victim =
      if victim >= 0 then victim else if from_t1 then demote_lru t t2 b2 else demote_lru t t1 b1
    in
    if victim >= 0 then Some victim else None

  let promote t key =
    let v = Int_table.get t.index key in
    if v >= 0 && v land 3 <= t2 then relink t key v t2 ~front:true

  let insert t ~pos key =
    let v = Int_table.get t.index key in
    if v >= 0 && v land 3 <= t2 then begin
      (match pos with
      | Policy.Hot -> relink t key v t2 ~front:true
      | Policy.Cold -> relink t key v t1 ~front:false);
      None
    end
    else if v >= 0 then begin
      (* ghost hit *)
      match pos with
      | Policy.Hot ->
          let b1_len = max 1 t.len.(b1) in
          let b2_len = max 1 t.len.(b2) in
          let hit_in_b2 = v land 3 = b2 in
          if hit_in_b2 then t.p <- max 0 (t.p - max 1 (b1_len / b2_len))
          else t.p <- min t.capacity (t.p + max 1 (b2_len / b1_len));
          let victim = if size t >= t.capacity then replace t ~hit_in_b2 else None in
          relink t key v t2 ~front:true;
          victim
      | Policy.Cold ->
          let victim = if size t >= t.capacity then replace t ~hit_in_b2:false else None in
          relink t key v t1 ~front:false;
          victim
    end
    else begin
      (* ARC case IV: a completely new key. *)
      let l1 = t.len.(t1) + t.len.(b1) in
      let total = l1 + t.len.(t2) + t.len.(b2) in
      let victim =
        if l1 >= t.capacity then
          if t.len.(t1) < t.capacity then begin
            (* the ghost half of L1 is over budget: recycle its LRU slot *)
            drop_ghost_lru t b1;
            replace t ~hit_in_b2:false
          end
          else begin
            (* T1 alone fills the cache: discard its LRU outright *)
            let v = A.pop_back t.arena t.lists.(t1) in
            if v < 0 then None
            else begin
              Int_table.remove t.index v;
              t.len.(t1) <- t.len.(t1) - 1;
              Some v
            end
          end
        else if total >= t.capacity then begin
          if total >= 2 * t.capacity then drop_ghost_lru t b2;
          if size t >= t.capacity then replace t ~hit_in_b2:false else None
        end
        else None
      in
      let node =
        match pos with
        | Policy.Hot -> A.push_front t.arena t.lists.(t1) key
        | Policy.Cold -> A.push_back t.arena t.lists.(t1) key
      in
      t.len.(t1) <- t.len.(t1) + 1;
      Int_table.set t.index key ((node lsl 2) lor t1);
      victim
    end

  let evict t = replace t ~hit_in_b2:false

  let remove t key =
    let v = Int_table.get t.index key in
    if v >= 0 then begin
      A.remove t.arena (v lsr 2);
      t.len.(v land 3) <- t.len.(v land 3) - 1;
      Int_table.remove t.index key
    end

  let contents t = A.to_list t.arena t.lists.(t2) @ A.to_list t.arena t.lists.(t1)

  let clear t =
    Array.iter (A.clear_list t.arena) t.lists;
    Array.fill t.len 0 4 0;
    Int_table.clear t.index;
    t.p <- 0

  let target t = t.p

  let in_t2 t key =
    let v = Int_table.get t.index key in
    v >= 0 && v land 3 = t2
end

include Policy.Weighted_of_unit (Core)

let target t = Core.target (core t)
let in_t2 t key = Core.in_t2 (core t) key
