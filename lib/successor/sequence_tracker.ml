(* Per-file storage: a bounded recency list of symbols, deduplicated so a
   repeated symbol moves to the front instead of occupying two slots.
   A symbol is exactly [length] file ids, so file [f]'s list lives in the
   flat region [store.(f * capacity * length) ..] as [capacity]
   back-to-back symbol slots, most recent first, with [lens.(f)] live —
   the same layout {!Tracker} uses, scaled by the symbol width. Matching
   a symbol is an int-array compare; moving one to the front is a single
   overlapping blit. *)

type t = {
  length : int;
  capacity : int;
  mutable store : int array; (* files_cap * capacity * length *)
  mutable lens : int array; (* files_cap *)
  mutable files_cap : int;
  (* ring of the last [length + 1] observations; when full, the oldest
     file's symbol (the following [length] accesses) is complete *)
  ring : int array;
  mutable ring_len : int;
}

let initial_files_cap = 1024

let create ?(capacity = 8) ~length () =
  if length <= 0 then invalid_arg "Sequence_tracker.create: length must be positive";
  if capacity <= 0 then invalid_arg "Sequence_tracker.create: capacity must be positive";
  {
    length;
    capacity;
    store = Array.make (initial_files_cap * capacity * length) 0;
    lens = Array.make initial_files_cap 0;
    files_cap = initial_files_cap;
    ring = Array.make (length + 1) 0;
    ring_len = 0;
  }


let ensure_file t file =
  if file >= t.files_cap then begin
    let cap = ref (max t.files_cap 1) in
    while file >= !cap do
      cap := 2 * !cap
    done;
    let store = Array.make (!cap * t.capacity * t.length) 0 in
    Array.blit t.store 0 store 0 (t.files_cap * t.capacity * t.length);
    let lens = Array.make !cap 0 in
    Array.blit t.lens 0 lens 0 t.files_cap;
    t.store <- store;
    t.lens <- lens;
    t.files_cap <- !cap
  end

(* the completed symbol sits in [ring.(1) .. ring.(length)] *)
let symbol_matches t ~slot_off =
  let rec eq j = j >= t.length || (t.store.(slot_off + j) = t.ring.(j + 1) && eq (j + 1)) in
  eq 0

let commit t file =
  ensure_file t file;
  let w = t.length in
  let base = file * t.capacity * w in
  let len = t.lens.(file) in
  let rec scan i =
    if i >= len then -1 else if symbol_matches t ~slot_off:(base + (i * w)) then i else scan (i + 1)
  in
  let at = scan 0 in
  (* move-to-front: slide the slots above the insertion point down one,
     dropping the least recent when a full list sees a new symbol *)
  let shift_slots = if at >= 0 then at else min len (t.capacity - 1) in
  Array.blit t.store base t.store (base + w) (shift_slots * w);
  Array.blit t.ring 1 t.store base w;
  if at < 0 then t.lens.(file) <- min (len + 1) t.capacity

let observe t file =
  (* the ring is never full on entry: completing a window drains one slot *)
  let cap = Array.length t.ring in
  t.ring.(t.ring_len) <- file;
  t.ring_len <- t.ring_len + 1;
  if t.ring_len = cap then begin
    (* the oldest entry's successor window is now complete *)
    let owner = t.ring.(0) in
    commit t owner;
    (* slide: drop the owner *)
    Array.blit t.ring 1 t.ring 0 (cap - 1);
    t.ring_len <- cap - 1
  end

let symbol_at t ~slot_off =
  let rec build j acc = if j < 0 then acc else build (j - 1) (t.store.(slot_off + j) :: acc) in
  build (t.length - 1) []

let sequences t file =
  if file < 0 || file >= t.files_cap then []
  else begin
    let base = file * t.capacity * t.length in
    let rec build i acc =
      if i < 0 then acc else build (i - 1) (symbol_at t ~slot_off:(base + (i * t.length)) :: acc)
    in
    build (t.lens.(file) - 1) []
  end

let predict t file =
  if file >= 0 && file < t.files_cap && t.lens.(file) > 0 then
    Some (symbol_at t ~slot_off:(file * t.capacity * t.length))
  else None

type accuracy = { opportunities : int; full_matches : int; first_matches : int }

let measure ~length ?capacity files =
  let t = create ?capacity ~length () in
  let n = Array.length files in
  let opportunities = ref 0 in
  let full = ref 0 in
  let first = ref 0 in
  for i = 0 to n - 1 do
    if i + length < n then begin
      match predict t files.(i) with
      | Some symbol ->
          incr opportunities;
          (* a symbol is always exactly [length] ids: compare it against
             the actual window in place instead of materialising it *)
          let rec matches j = function
            | [] -> true
            | x :: tl -> x = files.(i + 1 + j) && matches (j + 1) tl
          in
          if matches 0 symbol then incr full;
          (match symbol with
          | head :: _ when head = files.(i + 1) -> incr first
          | _ -> ())
      | None -> ()
    end;
    observe t files.(i)
  done;
  { opportunities = !opportunities; full_matches = !full; first_matches = !first }
