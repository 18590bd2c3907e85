open Agg_util

(* The Recency tracker — the configuration every experiment runs — stores
   all successor lists in one flat int array: file [f]'s list occupies the
   region [f * capacity .. f * capacity + lens.(f) - 1], most recent
   first. File ids are dense small ints (the workload generator allocates
   them sequentially), so direct indexing replaces hashing and an observe
   is a bounds check plus a few-word shift. The arrays are allocated by
   the first observe (a tracker that is never fed costs nothing) and grow
   by doubling as the namespace grows.

   The idealised Frequency policy needs unbounded per-successor counters
   (see {!Successor_list}), so it keeps the boxed per-file lists. *)

type t = {
  capacity : int;
  policy : Successor_list.policy;
  per_client : bool;
  (* Recency representation *)
  mutable slots : int array; (* files_cap * capacity *)
  mutable lens : int array; (* files_cap *)
  mutable files_cap : int;
  mutable tracked : int; (* files with a non-empty list *)
  contexts : Int_table.t; (* client id (0 when global) -> previous file *)
  (* Frequency representation *)
  freq_lists : (int, Successor_list.t) Hashtbl.t;
}

let initial_files_cap = 4096

let create ?(capacity = 8) ?(policy = Successor_list.Recency) ?(per_client = false) () =
  if capacity <= 0 then invalid_arg "Tracker.create: capacity must be positive";
  {
    capacity;
    policy;
    per_client;
    slots = [||];
    lens = [||];
    files_cap = 0;
    tracked = 0;
    contexts = Int_table.create ~capacity:16 ();
    freq_lists = Hashtbl.create (if policy = Successor_list.Frequency then 4096 else 1);
  }

let capacity t = t.capacity
let policy t = t.policy

let ensure_file t file =
  if file >= t.files_cap then begin
    let cap = ref (max t.files_cap initial_files_cap) in
    while file >= !cap do
      cap := 2 * !cap
    done;
    let slots = Array.make (!cap * t.capacity) 0 in
    Array.blit t.slots 0 slots 0 (t.files_cap * t.capacity);
    let lens = Array.make !cap 0 in
    Array.blit t.lens 0 lens 0 t.files_cap;
    t.slots <- slots;
    t.lens <- lens;
    t.files_cap <- !cap
  end

let freq_list_for t file =
  match Hashtbl.find_opt t.freq_lists file with
  | Some l -> l
  | None ->
      let l = Successor_list.create ~capacity:t.capacity ~policy:t.policy in
      Hashtbl.replace t.freq_lists file l;
      l

let observe_successor t prev file =
  match t.policy with
  | Successor_list.Recency ->
      ensure_file t prev;
      let len = t.lens.(prev) in
      let len' =
        Successor_list.observe_slots t.slots ~off:(prev * t.capacity) ~len ~capacity:t.capacity
          file
      in
      if len = 0 && len' > 0 then t.tracked <- t.tracked + 1;
      t.lens.(prev) <- len'
  | Successor_list.Frequency -> Successor_list.observe (freq_list_for t prev) file

let observe t ?(client = 0) file =
  let context_key = if t.per_client then client else 0 in
  let prev = Int_table.get t.contexts context_key in
  if prev >= 0 then observe_successor t prev file;
  Int_table.set t.contexts context_key file

let observe_event t (e : Agg_trace.Event.t) = observe t ~client:e.client e.file
let observe_trace t trace = Agg_trace.Trace.iter (observe_event t) trace

let successors t file =
  match t.policy with
  | Successor_list.Recency ->
      if file < 0 || file >= t.files_cap then []
      else begin
        let off = file * t.capacity in
        let rec build i acc = if i < off then acc else build (i - 1) (t.slots.(i) :: acc) in
        build (off + t.lens.(file) - 1) []
      end
  | Successor_list.Frequency -> (
      match Hashtbl.find_opt t.freq_lists file with
      | Some l -> Successor_list.ranked l
      | None -> [])

(* Is [x] absent from [set.(i) .. set.(len - 1)]? *)
let rec outside (set : int array) len (x : int) i =
  i >= len || (set.(i) <> x && outside set len x (i + 1))

let rec first_slot_outside (slots : int array) set len i stop =
  if i >= stop then -1
  else if outside set len slots.(i) 0 then slots.(i)
  else first_slot_outside slots set len (i + 1) stop

let first_successor_outside t file set ~len =
  match t.policy with
  | Successor_list.Recency ->
      if file < 0 || file >= t.files_cap then -1
      else
        let off = file * t.capacity in
        first_slot_outside t.slots set len off (off + t.lens.(file))
  | Successor_list.Frequency -> (
      match Hashtbl.find_opt t.freq_lists file with
      | Some l -> (
          match List.find_opt (fun s -> outside set len s 0) (Successor_list.ranked l) with
          | Some s -> s
          | None -> -1)
      | None -> -1)

let top_successor t file =
  match t.policy with
  | Successor_list.Recency ->
      if file >= 0 && file < t.files_cap && t.lens.(file) > 0 then
        Some t.slots.(file * t.capacity)
      else None
  | Successor_list.Frequency -> (
      match Hashtbl.find_opt t.freq_lists file with
      | Some l -> Successor_list.top l
      | None -> None)

let transitive_successors t file ~length =
  if length < 0 then invalid_arg "Tracker.transitive_successors: negative length";
  (* the chain is at most [length] files (single digits in practice), so a
     linear duplicate scan over the accumulator replaces the scratch
     table; [acc] is kept reversed and never contains [file] *)
  let rec follow current acc remaining =
    if remaining = 0 then List.rev acc
    else
      match top_successor t current with
      | Some next when next <> file && not (List.mem next acc) ->
          follow next (next :: acc) (remaining - 1)
      | Some _ | None -> List.rev acc
  in
  follow file [] length

let tracked_files t =
  match t.policy with
  | Successor_list.Recency -> t.tracked
  | Successor_list.Frequency ->
      Hashtbl.fold
        (fun _ l acc -> if Successor_list.size l > 0 then acc + 1 else acc)
        t.freq_lists 0

let reset_context t = Int_table.clear t.contexts
