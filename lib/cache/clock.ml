open Agg_util

module Core = struct
  (* The circular buffer is flat: parallel key/reference arrays, a
     direct-index table from key to slot, and slot occupancy as a bitset
     of [bits]-bit words. The hand's searches — the first free slot at or
     after it, the next occupied slot for a sweep — test a word at a time,
     so a sparsely filled buffer (large weighted residents leave most
     slots empty) costs O(capacity / bits) per search, not O(capacity). *)

  let bits = 62 (* a full word stays a non-negative int *)
  let full = (1 lsl bits) - 1

  type t = {
    capacity : int;
    keys : int array;
    referenced : bool array;
    occupied : int array; (* bit (i mod bits) of word (i / bits): slot i holds a key *)
    last_mask : int; (* the slots that exist in the last word *)
    index : Int_table.t; (* key -> slot number *)
    mutable hand : int;
    mutable size : int;
  }

  let policy_name = "clock"

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Clock.create: capacity must be positive";
    let words = (capacity + bits - 1) / bits in
    {
      capacity;
      keys = Array.make capacity 0;
      referenced = Array.make capacity false;
      occupied = Array.make words 0;
      last_mask = full lsr ((words * bits) - capacity);
      index = Int_table.create ~capacity:(2 * capacity) ();
      hand = 0;
      size = 0;
    }

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

  (* The first slot at or after the hand, wrapping, that is free
     ([~free:true]) or occupied ([~free:false]); -1 when there is none.
     The hand's own word is visited twice: first for the bits at or
     after the hand, last for the bits before it. *)
  let search t ~free =
    let words = Array.length t.occupied in
    let w0 = t.hand / bits in
    let before = (1 lsl (t.hand mod bits)) - 1 in
    let rec scan k =
      if k > words then -1
      else begin
        let w = if w0 + k >= words then w0 + k - words else w0 + k in
        let o = t.occupied.(w) in
        let m = if free then lnot o land (if w = words - 1 then t.last_mask else full) else o in
        let m = if k = 0 then m land lnot before else if k = words then m land before else m in
        if m <> 0 then (w * bits) + lowest_bit m else scan (k + 1)
      end
    in
    scan 0

  let promote t key =
    let i = Int_table.get t.index key in
    if i >= 0 then t.referenced.(i) <- true

  let advance t = t.hand <- (t.hand + 1) mod t.capacity

  (* Sweep the hand, giving second chances, until an unreferenced occupied
     slot is found; empty slots are skipped a word at a time. Terminates
     within two revolutions (the caller guarantees a resident). *)
  let rec find_victim t =
    t.hand <- search t ~free:false;
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
    if t.size = 0 then None
    else begin
      let i = find_victim t in
      let victim = t.keys.(i) in
      vacate t i;
      Int_table.remove t.index victim;
      t.size <- t.size - 1;
      Some victim
    end

  let insert t ~pos key =
    let existing = Int_table.get t.index key in
    if existing >= 0 then begin
      t.referenced.(existing) <- (match pos with Policy.Hot -> true | Policy.Cold -> false);
      None
    end
    else begin
      let slot_idx, victim =
        if t.size < t.capacity then begin
          let i = search t ~free:true in
          assert (i >= 0) (* size < capacity implies a free slot *);
          (i, None)
        end
        else begin
          let i = find_victim t in
          let old = t.keys.(i) in
          Int_table.remove t.index old;
          t.size <- t.size - 1;
          (i, Some old)
        end
      in
      t.keys.(slot_idx) <- key;
      occupy t slot_idx;
      t.referenced.(slot_idx) <- (match pos with Policy.Hot -> true | Policy.Cold -> false);
      Int_table.set t.index key slot_idx;
      t.size <- t.size + 1;
      victim
    end

  let remove t key =
    let i = Int_table.get t.index key in
    if i >= 0 then begin
      vacate t i;
      t.referenced.(i) <- false;
      Int_table.remove t.index key;
      t.size <- t.size - 1
    end

  let contents t =
    let out = ref [] in
    for i = t.capacity - 1 downto 0 do
      if is_occupied t i then out := t.keys.(i) :: !out
    done;
    !out

  let clear t =
    Array.fill t.occupied 0 (Array.length t.occupied) 0;
    Array.fill t.referenced 0 t.capacity false;
    Int_table.clear t.index;
    t.hand <- 0;
    t.size <- 0
end

include Policy.Weighted_of_unit (Core)
