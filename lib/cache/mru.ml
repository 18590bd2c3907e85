open Agg_util

module Core = struct
  (* Arena-backed (see lru.ml): flat-array list + direct-index key table. *)
  type t = {
    capacity : int;
    arena : Dlist_arena.t;
    order : Dlist_arena.list_;
    index : Int_table.t; (* key -> node *)
    mutable size : int;
  }

  let policy_name = "mru"

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Mru.create: capacity must be positive";
    let arena = Dlist_arena.create ~capacity:(Policy.presize capacity + 2) () in
    {
      capacity;
      arena;
      order = Dlist_arena.new_list arena;
      index = Int_table.create ();
      size = 0;
    }

  let capacity t = t.capacity
  let size t = t.size
  let mem t key = Int_table.mem t.index key

  let hit t key =
    let node = Int_table.get t.index key in
    if node < 0 then false
    else begin
      Dlist_arena.move_to_front t.arena t.order node;
      true
    end

  let demote t key =
    let node = Int_table.get t.index key in
    if node < 0 then false
    else begin
      Dlist_arena.move_to_back t.arena t.order node;
      true
    end

  (* The victim is the *front* (most recently touched) entry. *)
  let evict t =
    let victim = Dlist_arena.pop_front t.arena t.order in
    if victim >= 0 then begin
      Int_table.remove t.index victim;
      t.size <- t.size - 1
    end;
    victim

  let admit t ~pos key =
    let victim = if t.size >= t.capacity then evict t else -1 in
    let node =
      match pos with
      | Policy.Hot -> Dlist_arena.push_front t.arena t.order key
      | Policy.Cold -> Dlist_arena.push_back t.arena t.order key
    in
    Int_table.set t.index key node;
    t.size <- t.size + 1;
    victim

  let remove t key =
    let node = Int_table.get t.index key in
    if node < 0 then false
    else begin
      Dlist_arena.remove t.arena node;
      Int_table.remove t.index key;
      t.size <- t.size - 1;
      true
    end

  let contents t = Dlist_arena.to_list t.arena t.order

  let clear t =
    Int_table.clear t.index;
    Dlist_arena.clear_list t.arena t.order;
    t.size <- 0
end

type t = Core.t Lift.t

let policy_name = Core.policy_name
let create ~capacity = Lift.make (module Core) (Core.create ~capacity)

include (Lift : Policy.OPS with type 'c lifted := 'c Lift.t)
