open Agg_util

module Core = struct
  (* Arena-backed 2Q: A1in and Am are intrusive lists in one arena, the key
     index packs [(node lsl 1) lor where], and the ghost buffer is a
     direct-index membership table plus a bounded int FIFO for its order.
     The FIFO, like the Queue it replaces, may hold stale keys whose
     membership was dropped on re-admission — dropping one is a no-op on
     the membership table, exactly as before. *)

  let a1in_bit = 0
  let am_bit = 1

  type t = {
    capacity : int;
    a1in_capacity : int;
    arena : Dlist_arena.t;
    a1in : Dlist_arena.list_;
    am : Dlist_arena.list_;
    index : Int_table.t; (* key -> (node lsl 1) lor where *)
    ghost : Int_table.t; (* key -> 1 when remembered *)
    ghost_order : Int_fifo.t; (* remembered keys, stale ones included *)
    mutable a1in_len : int;
  }

  let policy_name = "2q"

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Twoq.create: capacity must be positive";
    let arena = Dlist_arena.create ~capacity:(Policy.presize capacity + 4) () in
    {
      capacity;
      a1in_capacity = Int.max 1 (capacity / 4);
      arena;
      a1in = Dlist_arena.new_list arena;
      am = Dlist_arena.new_list arena;
      index = Int_table.create ();
      ghost = Int_table.create ();
      ghost_order = Int_fifo.create ~bound:(Int.max 1 (capacity / 2));
      a1in_len = 0;
    }

  let capacity t = t.capacity
  let size t = Int_table.length t.index
  let mem t key = Int_table.mem t.index key

  let ghost_remember t key =
    if not (Int_table.mem t.ghost key) then begin
      Int_table.set t.ghost key 1;
      let oldest = Int_fifo.push t.ghost_order key in
      if oldest >= 0 then Int_table.remove t.ghost oldest
    end

  (* 2Q: a hit in A1in does not reorder the FIFO *)
  let hit t key =
    let packed = Int_table.get t.index key in
    if packed < 0 then false
    else begin
      if packed land 1 = am_bit then Dlist_arena.move_to_front t.arena t.am (packed lsr 1);
      true
    end

  let demote t key =
    let packed = Int_table.get t.index key in
    if packed < 0 then false
    else begin
      let node = packed lsr 1 in
      if packed land 1 = a1in_bit then Dlist_arena.move_to_back t.arena t.a1in node
      else Dlist_arena.move_to_back t.arena t.am node;
      true
    end

  let evict_a1in t =
    let victim = Dlist_arena.pop_back t.arena t.a1in in
    if victim >= 0 then begin
      Int_table.remove t.index victim;
      t.a1in_len <- t.a1in_len - 1;
      ghost_remember t victim
    end;
    victim

  let evict_am t =
    let victim = Dlist_arena.pop_back t.arena t.am in
    if victim >= 0 then Int_table.remove t.index victim;
    victim

  (* reclaim space per the 2Q paper: overfull A1in first, else Am *)
  let evict t =
    if t.a1in_len > t.a1in_capacity then evict_a1in t
    else
      let victim = evict_am t in
      if victim >= 0 then victim else evict_a1in t

  let admit t ~pos key =
    let victim = if size t >= t.capacity then evict t else -1 in
    if Int_table.mem t.ghost key && pos = Policy.Hot then begin
      (* it came back while remembered: it has a working set, admit it
         straight into the main queue *)
      Int_table.remove t.ghost key;
      let node = Dlist_arena.push_front t.arena t.am key in
      Int_table.set t.index key ((node lsl 1) lor am_bit)
    end
    else begin
      let node =
        match pos with
        | Policy.Hot -> Dlist_arena.push_front t.arena t.a1in key
        | Policy.Cold -> Dlist_arena.push_back t.arena t.a1in key
      in
      t.a1in_len <- t.a1in_len + 1;
      Int_table.set t.index key ((node lsl 1) lor a1in_bit)
    end;
    victim

  let remove t key =
    let packed = Int_table.get t.index key in
    if packed < 0 then false
    else begin
      Dlist_arena.remove t.arena (packed lsr 1);
      if packed land 1 = a1in_bit then t.a1in_len <- t.a1in_len - 1;
      Int_table.remove t.index key;
      true
    end

  let contents t = Dlist_arena.to_list t.arena t.am @ Dlist_arena.to_list t.arena t.a1in

  let clear t =
    Dlist_arena.clear_list t.arena t.a1in;
    Dlist_arena.clear_list t.arena t.am;
    Int_table.clear t.index;
    Int_table.clear t.ghost;
    Int_fifo.clear t.ghost_order;
    t.a1in_len <- 0

  let in_main t key =
    let packed = Int_table.get t.index key in
    packed >= 0 && packed land 1 = am_bit
end

type t = Core.t Lift.t

let policy_name = Core.policy_name
let create ~capacity = Lift.make (module Core) (Core.create ~capacity)

include (Lift : Policy.OPS with type 'c lifted := 'c Lift.t)

let in_main t key = Core.in_main (Lift.core t) key
