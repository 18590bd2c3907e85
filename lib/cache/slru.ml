open Agg_util

module Core = struct
  (* Arena-backed segmented LRU: both segments are intrusive lists in one
     arena, and the key index packs [(node lsl 1) lor segment] into a
     direct-index table slot, so a hit is a few array probes. *)

  let probationary_bit = 0
  let protected_bit = 1

  type t = {
    capacity : int;
    protected_capacity : int;
    arena : Dlist_arena.t;
    probationary : Dlist_arena.list_;
    protected_ : Dlist_arena.list_;
    index : Int_table.t; (* key -> (node lsl 1) lor segment *)
    mutable protected_len : int;
  }

  let policy_name = "slru"

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Slru.create: capacity must be positive";
    let arena = Dlist_arena.create ~capacity:(capacity + 4) () in
    {
      capacity;
      protected_capacity = Int.max 1 (2 * capacity / 3);
      arena;
      probationary = Dlist_arena.new_list arena;
      protected_ = Dlist_arena.new_list arena;
      index = Int_table.create ~capacity:(2 * capacity) ();
      protected_len = 0;
    }

  let capacity t = t.capacity
  let size t = Int_table.length t.index
  let mem t key = Int_table.mem t.index key

  let set_segment t key node segment = Int_table.set t.index key ((node lsl 1) lor segment)

  (* Demote the protected LRU entry to the probationary MRU position. *)
  let demote_one t =
    let node = Dlist_arena.last t.arena t.protected_ in
    if node >= 0 then begin
      let key = Dlist_arena.key t.arena node in
      Dlist_arena.move_to_front t.arena t.probationary node;
      t.protected_len <- t.protected_len - 1;
      set_segment t key node probationary_bit
    end

  let promote t key =
    let packed = Int_table.get t.index key in
    if packed >= 0 then begin
      let node = packed lsr 1 in
      if packed land 1 = protected_bit then Dlist_arena.move_to_front t.arena t.protected_ node
      else begin
        Dlist_arena.move_to_front t.arena t.protected_ node;
        t.protected_len <- t.protected_len + 1;
        set_segment t key node protected_bit;
        if t.protected_len > t.protected_capacity then demote_one t
      end
    end

  let evict t =
    let victim = Dlist_arena.pop_back t.arena t.probationary in
    if victim >= 0 then begin
      Int_table.remove t.index victim;
      victim
    end
    else begin
      let victim = Dlist_arena.pop_back t.arena t.protected_ in
      if victim >= 0 then begin
        Int_table.remove t.index victim;
        t.protected_len <- t.protected_len - 1
      end;
      victim
    end

  let insert t ~pos key =
    let packed = Int_table.get t.index key in
    if packed >= 0 then begin
      (match pos with
      | Policy.Hot -> promote t key
      | Policy.Cold ->
          (* demote to the probationary cold end *)
          let node = packed lsr 1 in
          Dlist_arena.move_to_back t.arena t.probationary node;
          if packed land 1 = protected_bit then begin
            t.protected_len <- t.protected_len - 1;
            set_segment t key node probationary_bit
          end);
      -1
    end
    else begin
      let victim = if size t >= t.capacity then evict t else -1 in
      let node =
        match pos with
        | Policy.Hot -> Dlist_arena.push_front t.arena t.probationary key
        | Policy.Cold -> Dlist_arena.push_back t.arena t.probationary key
      in
      set_segment t key node probationary_bit;
      victim
    end

  let remove t key =
    let packed = Int_table.get t.index key in
    if packed >= 0 then begin
      Dlist_arena.remove t.arena (packed lsr 1);
      if packed land 1 = protected_bit then t.protected_len <- t.protected_len - 1;
      Int_table.remove t.index key
    end

  let contents t =
    Dlist_arena.to_list t.arena t.protected_ @ Dlist_arena.to_list t.arena t.probationary

  let clear t =
    Dlist_arena.clear_list t.arena t.probationary;
    Dlist_arena.clear_list t.arena t.protected_;
    Int_table.clear t.index;
    t.protected_len <- 0

  let protected_resident t key =
    let packed = Int_table.get t.index key in
    packed >= 0 && packed land 1 = protected_bit
end

include Policy.Weighted_of_unit (Core)

let protected_resident t key = Core.protected_resident (core t) key
