open Agg_util

module Core = struct
  type t = {
    capacity : int;
    keys : int Vec.t; (* dense array for O(1) random victim selection *)
    index : Int_table.t; (* key -> position in [keys] *)
    prng : Prng.t;
  }

  let policy_name = "random"

  let create_seeded ~capacity ~seed =
    if capacity <= 0 then invalid_arg "Random_policy.create: capacity must be positive";
    {
      capacity;
      keys = Vec.create ();
      index = Int_table.create ();
      prng = Prng.create ~seed ();
    }

  let create ~capacity = create_seeded ~capacity ~seed:0x5eed

  let capacity t = t.capacity
  let size t = Vec.length t.keys
  let mem t key = Int_table.mem t.index key

  (* Accesses and repositions change nothing. *)
  let hit = mem
  let demote = mem

  (* Swap-remove keeps the key array dense. *)
  let remove_at t i =
    let last = Vec.length t.keys - 1 in
    let victim = Vec.get t.keys i in
    let moved = Vec.get t.keys last in
    Vec.set t.keys i moved;
    Vec.drop_last t.keys;
    if i <> last then Int_table.set t.index moved i;
    Int_table.remove t.index victim;
    victim

  let evict t = if size t = 0 then -1 else remove_at t (Prng.int t.prng (size t))

  let admit t ~pos:_ key =
    let victim = if size t >= t.capacity then remove_at t (Prng.int t.prng (size t)) else -1 in
    Int_table.set t.index key (Vec.length t.keys);
    Vec.push t.keys key;
    victim

  let remove t key =
    let i = Int_table.get t.index key in
    if i < 0 then false
    else begin
      ignore (remove_at t i);
      true
    end

  let contents t = Vec.to_list t.keys

  let clear t =
    Vec.clear t.keys;
    Int_table.clear t.index
end

type t = Core.t Lift.t

let policy_name = Core.policy_name
let create ~capacity = Lift.make (module Core) (Core.create ~capacity)
let create_seeded ~capacity ~seed = Lift.make (module Core) (Core.create_seeded ~capacity ~seed)

include (Lift : Policy.OPS with type 'c lifted := 'c Lift.t)
