open Agg_util

module Core = struct
  (* The circular buffer is flat: parallel key/reference arrays, a
     direct-index table from key to slot, and slot occupancy as a bitset
     of [bits]-bit words. The hand's searches — the first free slot at or
     after it, the next occupied slot for a sweep — test a word at a time,
     so a sparsely filled buffer (large weighted residents leave most
     slots empty) costs O(capacity / bits) per search, not O(capacity).

     Only the first [slots] of the [capacity] slots are allocated (the
     words holding {!Policy.presize} slots at creation); the rest are
     free and unreferenced, and the arrays double when a free slot is
     wanted past them. Slots fill from the hand and the hand never
     passes the first unallocated slot, so a search over the allocated
     slots gives the answer a search over all of them would. *)

  let bits = 62 (* a full word stays a non-negative int *)
  let full = (1 lsl bits) - 1

  type t = {
    capacity : int;
    mutable slots : int; (* allocated slots: [capacity], or a multiple of [bits] below it *)
    mutable keys : int array;
    mutable referenced : bool array;
    mutable occupied : int array; (* bit (i mod bits) of word (i / bits): slot i holds a key *)
    mutable last_mask : int; (* the allocated slots of the last word *)
    index : Int_table.t; (* key -> slot number *)
    mutable hand : int;
    mutable size : int;
  }

  let policy_name = "clock"

  (* Words holding [n >= 1] slots; no step overflows near [max_int]. *)
  let words_for n = ((n - 1) / bits) + 1

  (* The slots [words] allocated words hold: whole words, at most
     [capacity]. *)
  let slots_in ~capacity words =
    if words >= words_for capacity then capacity else words * bits

  (* The allocated slots of the last of [words] words. *)
  let last_mask_for ~slots words = full lsr (bits - (slots - ((words - 1) * bits)))

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Clock.create: capacity must be positive";
    let words = words_for (Policy.presize capacity) in
    let slots = slots_in ~capacity words in
    {
      capacity;
      slots;
      keys = Array.make slots 0;
      referenced = Array.make slots false;
      occupied = Array.make words 0;
      last_mask = last_mask_for ~slots words;
      index = Int_table.create ();
      hand = 0;
      size = 0;
    }

  (* Doubles the allocated words, up to the capacity. *)
  let grow t =
    let words = Array.length t.occupied in
    let words' = Int.min (words_for t.capacity) (2 * words) in
    let slots = slots_in ~capacity:t.capacity words' in
    let keys = Array.make slots 0 and referenced = Array.make slots false in
    for i = 0 to t.slots - 1 do
      keys.(i) <- t.keys.(i);
      referenced.(i) <- t.referenced.(i)
    done;
    let occupied = Array.make words' 0 in
    for w = 0 to words - 1 do
      occupied.(w) <- t.occupied.(w)
    done;
    t.keys <- keys;
    t.referenced <- referenced;
    t.occupied <- occupied;
    t.slots <- slots;
    t.last_mask <- last_mask_for ~slots words'

  let capacity t = t.capacity
  let size t = t.size
  let mem t key = Int_table.mem t.index key

  let is_occupied t i = t.occupied.(i / bits) land (1 lsl (i mod bits)) <> 0
  let occupy t i = t.occupied.(i / bits) <- t.occupied.(i / bits) lor (1 lsl (i mod bits))
  let vacate t i = t.occupied.(i / bits) <- t.occupied.(i / bits) land lnot (1 lsl (i mod bits))

  (* Index of the lowest set bit of a non-zero word. *)
  let lowest_bit w =
    let n = ref 0 and w = ref w in
    if !w land 0xffff_ffff = 0 then begin
      n := !n + 32;
      w := !w lsr 32
    end;
    if !w land 0xffff = 0 then begin
      n := !n + 16;
      w := !w lsr 16
    end;
    if !w land 0xff = 0 then begin
      n := !n + 8;
      w := !w lsr 8
    end;
    if !w land 0xf = 0 then begin
      n := !n + 4;
      w := !w lsr 4
    end;
    if !w land 0x3 = 0 then begin
      n := !n + 2;
      w := !w lsr 2
    end;
    if !w land 0x1 = 0 then incr n;
    !n

  (* The word scan of [scan], at the [k]th word from [w0]; a top-level
     function, so a search allocates no closure. *)
  let rec scan_words t ~free ~w0 ~before ~last k =
    if k > last then -1
    else begin
      let words = Array.length t.occupied in
      let w = if w0 + k >= words then w0 + k - words else w0 + k in
      let o = t.occupied.(w) in
      let m = if free then lnot o land (if w = words - 1 then t.last_mask else full) else o in
      let m = if k = 0 then m land lnot before else if k = words then m land before else m in
      if m <> 0 then (w * bits) + lowest_bit m else scan_words t ~free ~w0 ~before ~last (k + 1)
    end

  (* The first allocated slot at or after [from] (an allocated slot) that
     is free ([~free:true]) or occupied ([~free:false]); then, when
     [wrap], the first one before [from]. -1 when there is none. The
     word holding [from] is visited twice when wrapping: first for the
     bits at or after [from], last for the bits before it. *)
  let scan t ~free ~from ~wrap =
    let words = Array.length t.occupied in
    let w0 = from / bits in
    let last = if wrap then words else words - w0 - 1 in
    scan_words t ~free ~w0 ~before:((1 lsl (from mod bits)) - 1) ~last 0

  (* The first free slot at or after the hand, wrapping; the caller
     guarantees one. Past the allocated slots every slot is free, and the
     hand is at most the first of them. *)
  let free_slot t =
    if t.hand >= t.slots then begin
      grow t;
      t.hand
    end
    else if t.slots < t.capacity then begin
      let i = scan t ~free:true ~from:t.hand ~wrap:false in
      if i >= 0 then i
      else begin
        let i = t.slots in
        grow t;
        i
      end
    end
    else scan t ~free:true ~from:t.hand ~wrap:true

  (* The first occupied slot at or after the hand, wrapping. *)
  let occupied_slot t =
    scan t ~free:false ~from:(if t.hand >= t.slots then 0 else t.hand) ~wrap:true

  let hit t key =
    let i = Int_table.get t.index key in
    if i < 0 then false
    else begin
      t.referenced.(i) <- true;
      true
    end

  let demote t key =
    let i = Int_table.get t.index key in
    if i < 0 then false
    else begin
      t.referenced.(i) <- false;
      true
    end

  let advance t = t.hand <- (t.hand + 1) mod t.capacity

  (* Sweep the hand, giving second chances, until an unreferenced occupied
     slot is found; empty slots are skipped a word at a time. Terminates
     within two revolutions (the caller guarantees a resident). *)
  let rec find_victim t =
    t.hand <- occupied_slot t;
    if t.referenced.(t.hand) then begin
      t.referenced.(t.hand) <- false;
      advance t;
      find_victim t
    end
    else begin
      let at = t.hand in
      advance t;
      at
    end

  let evict t =
    if t.size = 0 then -1
    else begin
      let i = find_victim t in
      let victim = t.keys.(i) in
      vacate t i;
      Int_table.remove t.index victim;
      t.size <- t.size - 1;
      victim
    end

  let admit t ~pos key =
    let full = t.size >= t.capacity in
    let slot_idx = if full then find_victim t else free_slot t in
    let victim = if full then t.keys.(slot_idx) else -1 in
    if full then begin
      Int_table.remove t.index victim;
      t.size <- t.size - 1
    end;
    t.keys.(slot_idx) <- key;
    occupy t slot_idx;
    t.referenced.(slot_idx) <- (match pos with Policy.Hot -> true | Policy.Cold -> false);
    Int_table.set t.index key slot_idx;
    t.size <- t.size + 1;
    victim

  let remove t key =
    let i = Int_table.get t.index key in
    if i < 0 then false
    else begin
      vacate t i;
      t.referenced.(i) <- false;
      Int_table.remove t.index key;
      t.size <- t.size - 1;
      true
    end

  let contents t =
    let out = ref [] in
    for i = t.slots - 1 downto 0 do
      if is_occupied t i then out := t.keys.(i) :: !out
    done;
    !out

  let clear t =
    Array.fill t.occupied 0 (Array.length t.occupied) 0;
    Array.fill t.referenced 0 t.slots false;
    Int_table.clear t.index;
    t.hand <- 0;
    t.size <- 0
end

type t = Core.t Lift.t

let policy_name = Core.policy_name
let create ~capacity = Lift.make (module Core) (Core.create ~capacity)

include (Lift : Policy.OPS with type 'c lifted := 'c Lift.t)
