open Agg_util

(* The Recency tracker — the configuration every experiment runs — stores
   all successor lists in one bump-allocated int array, [slots]. A file
   gets a region only when it first precedes another file: [regions]
   interns its id to the offset of its region, which holds the list's
   length and then the list itself, most recent first:
   [slots.(off) = len], entries at [slots.(off + 1) .. slots.(off + len)].
   A region holds its list rounded up to a power of two, at most
   [capacity] slots, so a file with one successor (most files, in every
   calibrated profile) costs two words there. Lists never shrink, so a
   region is full exactly when its length is a power of two below
   [capacity]; before a new successor enters a full region, the list
   moves to a fresh region twice the size at the top of [slots], and the
   old one is left unused. The global context is a field, so an observe
   is one intern probe and a few-word shift in one region; per-client
   contexts add a probe of [contexts].

   The idealised Frequency policy needs unbounded per-successor counters
   (see {!Successor_list}), so it keeps the boxed per-file lists. *)

type t = {
  capacity : int;
  policy : Successor_list.policy;
  per_client : bool;
  (* Recency representation; every region holds a non-empty list, so the
     interned-file count is the tracked-file count *)
  regions : Int_table.t; (* file id -> offset of its region in [slots] *)
  mutable slots : int array;
  mutable top : int; (* first unallocated slot *)
  mutable previous : int; (* the previous file of the global context, or -1 *)
  contexts : Int_table.t; (* client id -> previous file, when [per_client] *)
  (* Frequency representation *)
  freq_lists : (int, Successor_list.t) Hashtbl.t;
}

let first_block = 1024

let create ?(capacity = 8) ?(policy = Successor_list.Recency) ?(per_client = false) () =
  if capacity <= 0 then invalid_arg "Tracker.create: capacity must be positive";
  {
    capacity;
    policy;
    per_client;
    regions = Int_table.create ();
    slots = [||];
    top = 0;
    previous = -1;
    contexts = Int_table.create ();
    freq_lists = Hashtbl.create (if policy = Successor_list.Frequency then 4096 else 1);
  }

let capacity t = t.capacity
let policy t = t.policy

(* The offset of [n] fresh slots at the top of [slots], which grows by
   doubling. The copy is a typed loop: [Array.blit] into an array on the
   major heap would call [caml_modify] once per element. *)
let reserve t n =
  let off = t.top in
  if off + n > Array.length t.slots then begin
    let old = t.slots in
    let slots = Array.make (Int.max first_block (Int.max (2 * Array.length old) (off + n))) 0 in
    for i = 0 to off - 1 do
      slots.(i) <- old.(i)
    done;
    t.slots <- slots
  end;
  t.top <- off + n;
  off

(* [file]'s first successor, in a one-slot region. *)
let add_region t file succ =
  let off = reserve t 2 in
  t.slots.(off) <- 1;
  t.slots.(off + 1) <- succ;
  Int_table.set t.regions file off

(* Is [x] absent from [set.(i) .. set.(len - 1)]? *)
let rec outside (set : int array) len (x : int) i =
  i >= len || (set.(i) <> x && outside set len x (i + 1))

(* Moves [file]'s full list of [len] entries at [off] to a region twice
   the size (at most [capacity]) and returns the new offset. *)
let relocate t file off len =
  let off' = reserve t (1 + Int.min (2 * len) t.capacity) in
  let slots = t.slots in
  for i = 0 to len do
    slots.(off' + i) <- slots.(off + i)
  done;
  Int_table.set t.regions file off';
  off'

(* Lists here are never empty, so [len land (len - 1) = 0] is exactly
   "[len] is a power of two". *)
let observe_region t prev off file =
  let len = t.slots.(off) in
  let full = len land (len - 1) = 0 && len < t.capacity in
  let off =
    if full && outside t.slots (off + 1 + len) file (off + 1) then relocate t prev off len
    else off
  in
  let slots = t.slots in
  slots.(off) <- Successor_list.observe_slots slots ~off:(off + 1) ~len ~capacity:t.capacity file

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
      let off = Int_table.get t.regions prev in
      if off < 0 then add_region t prev file else observe_region t prev off file
  | Successor_list.Frequency -> Successor_list.observe (freq_list_for t prev) file

let observe_client t ~client file =
  if t.per_client then begin
    let prev = Int_table.get t.contexts client in
    if prev >= 0 then observe_successor t prev file;
    Int_table.set t.contexts client file
  end
  else begin
    let prev = t.previous in
    if prev >= 0 then observe_successor t prev file;
    t.previous <- file
  end

let observe t ?(client = 0) file = observe_client t ~client file

let observe_event t (e : Agg_trace.Event.t) = observe_client t ~client:e.client e.file
let observe_trace t trace = Agg_trace.Trace.iter (observe_event t) trace

let successors t file =
  match t.policy with
  | Successor_list.Recency ->
      let off = Int_table.get t.regions file in
      if off < 0 then []
      else begin
        let rec build i acc = if i = off then acc else build (i - 1) (t.slots.(i) :: acc) in
        build (off + t.slots.(off)) []
      end
  | Successor_list.Frequency -> (
      match Hashtbl.find_opt t.freq_lists file with
      | Some l -> Successor_list.ranked l
      | None -> [])

let rec first_slot_outside (slots : int array) set len i stop =
  if i >= stop then -1
  else if outside set len slots.(i) 0 then slots.(i)
  else first_slot_outside slots set len (i + 1) stop

let first_successor_outside t file set ~len =
  match t.policy with
  | Successor_list.Recency ->
      let off = Int_table.get t.regions file in
      if off < 0 then -1 else first_slot_outside t.slots set len (off + 1) (off + 1 + t.slots.(off))
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
      let off = Int_table.get t.regions file in
      if off < 0 then None else Some t.slots.(off + 1)
  | Successor_list.Frequency -> (
      match Hashtbl.find_opt t.freq_lists file with
      | Some l -> Successor_list.top l
      | None -> None)

let rec mem_int (x : int) = function [] -> false | y :: rest -> y = x || mem_int x rest

let transitive_successors t file ~length =
  if length < 0 then invalid_arg "Tracker.transitive_successors: negative length";
  (* the chain is at most [length] files (single digits in practice), so a
     linear duplicate scan over the accumulator replaces the scratch
     table; [acc] is kept reversed and never contains [file] *)
  let rec follow current acc remaining =
    if remaining = 0 then List.rev acc
    else
      match top_successor t current with
      | Some next when next <> file && not (mem_int next acc) ->
          follow next (next :: acc) (remaining - 1)
      | Some _ | None -> List.rev acc
  in
  follow file [] length

let tracked_files t =
  match t.policy with
  | Successor_list.Recency -> Int_table.length t.regions
  | Successor_list.Frequency ->
      Hashtbl.fold
        (fun _ l acc -> if Successor_list.size l > 0 then acc + 1 else acc)
        t.freq_lists 0

let reset_context t =
  t.previous <- -1;
  Int_table.clear t.contexts
