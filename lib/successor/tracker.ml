open Agg_util

(* The Recency tracker — the configuration every experiment runs — stores
   all successor lists in one flat int array of [capacity]-sized regions,
   most recent first. A file gets a region only when it first precedes
   another file: [rows] interns its id to a dense row number, and row
   [r]'s list occupies [slots.(r * capacity) .. slots.(r * capacity +
   lens.(r) - 1)]. The intern table costs one word per id up to the
   largest id seen, and the regions [capacity + 1] words per tracked file,
   so a run pays for the files it keeps successors for, not for the width
   of the id space. An observe is two array probes plus a few-word shift.
   The region arrays are allocated by the first observe (a tracker that is
   never fed costs two 16-entry tables) and grow by doubling from a first
   block of [row_block] rows.

   The idealised Frequency policy needs unbounded per-successor counters
   (see {!Successor_list}), so it keeps the boxed per-file lists. *)

type t = {
  capacity : int;
  policy : Successor_list.policy;
  per_client : bool;
  (* Recency representation; every row holds a non-empty list, so the
     row count is the tracked-file count *)
  rows : Int_table.t; (* file id -> row *)
  mutable slots : int array; (* row capacity * capacity *)
  mutable lens : int array; (* row capacity *)
  contexts : Int_table.t; (* client id (0 when global) -> previous file *)
  (* Frequency representation *)
  freq_lists : (int, Successor_list.t) Hashtbl.t;
}

let row_block = 256

let create ?(capacity = 8) ?(policy = Successor_list.Recency) ?(per_client = false) () =
  if capacity <= 0 then invalid_arg "Tracker.create: capacity must be positive";
  {
    capacity;
    policy;
    per_client;
    rows = Int_table.create ~capacity:16 ();
    slots = [||];
    lens = [||];
    contexts = Int_table.create ~capacity:16 ();
    freq_lists = Hashtbl.create (if policy = Successor_list.Frequency then 4096 else 1);
  }

let capacity t = t.capacity
let policy t = t.policy

(* The next free row, bound to [file]; its region starts empty. *)
let add_row t file =
  let row = Int_table.length t.rows in
  let rows_cap = Array.length t.lens in
  if row = rows_cap then begin
    let cap = Int.max row_block (2 * rows_cap) in
    let slots = Array.make (cap * t.capacity) 0 in
    Array.blit t.slots 0 slots 0 (rows_cap * t.capacity);
    let lens = Array.make cap 0 in
    Array.blit t.lens 0 lens 0 rows_cap;
    t.slots <- slots;
    t.lens <- lens
  end;
  Int_table.set t.rows file row;
  row

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
      let row = Int_table.get t.rows prev in
      let row = if row >= 0 then row else add_row t prev in
      t.lens.(row) <-
        Successor_list.observe_slots t.slots ~off:(row * t.capacity) ~len:t.lens.(row)
          ~capacity:t.capacity file
  | Successor_list.Frequency -> Successor_list.observe (freq_list_for t prev) file

let observe_client t ~client file =
  let context_key = if t.per_client then client else 0 in
  let prev = Int_table.get t.contexts context_key in
  if prev >= 0 then observe_successor t prev file;
  Int_table.set t.contexts context_key file

let observe t ?(client = 0) file = observe_client t ~client file

let observe_event t (e : Agg_trace.Event.t) = observe_client t ~client:e.client e.file
let observe_trace t trace = Agg_trace.Trace.iter (observe_event t) trace

let successors t file =
  match t.policy with
  | Successor_list.Recency ->
      let row = Int_table.get t.rows file in
      if row < 0 then []
      else begin
        let off = row * t.capacity in
        let rec build i acc = if i < off then acc else build (i - 1) (t.slots.(i) :: acc) in
        build (off + t.lens.(row) - 1) []
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
      let row = Int_table.get t.rows file in
      if row < 0 then -1
      else
        let off = row * t.capacity in
        first_slot_outside t.slots set len off (off + t.lens.(row))
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
      let row = Int_table.get t.rows file in
      if row < 0 then None else Some t.slots.(row * t.capacity)
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
  | Successor_list.Recency -> Int_table.length t.rows
  | Successor_list.Frequency ->
      Hashtbl.fold
        (fun _ l acc -> if Successor_list.size l > 0 then acc + 1 else acc)
        t.freq_lists 0

let reset_context t = Int_table.clear t.contexts
