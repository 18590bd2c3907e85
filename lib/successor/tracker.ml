open Agg_util

(* The Recency tracker — the configuration every experiment runs — stores
   all successor lists in fixed pages of [page_size] ints. A file gets a
   region only when it first precedes another file: [regions] interns
   its id to the offset of its region, [page * page_size + index], and
   the region holds the list's length and then the list itself, most
   recent first: [page.(i) = len], entries at [page.(i + 1) ..
   page.(i + len)]. A region holds its list rounded up to a power of two,
   at most [capacity] slots, so a file with one successor (most files,
   in every calibrated profile) costs two words. Lists never shrink, so a
   region is full exactly when its length is a power of two below
   [capacity]; before a new successor enters a full region, the list
   moves to a fresh region twice the size, and the old one is left
   unused.

   Regions are bump-allocated in the last page, and no region straddles
   two: one that does not fit starts a fresh page, leaving at most
   [capacity] slots unused at the end of the old one. A region larger
   than a page (past 256 successors, so only at [capacity] 512 or more)
   gets a page of its own, sized to it; its offset is still
   [page * page_size], so every offset splits into page and index by a
   constant shift and mask. No slot is ever copied but a relocated
   list's, and a run allocates its regions' pages and a directory of one
   word per page.

   The global context is a field, so an observe is one intern probe and
   a few-word shift in one region; per-client contexts add a probe of
   [contexts].

   The idealised Frequency policy needs unbounded per-successor counters
   (see {!Successor_list}), so it keeps the boxed per-file lists. *)

let page_bits = 9
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type t = {
  capacity : int;
  policy : Successor_list.policy;
  per_client : bool;
  (* Recency representation; every region holds a non-empty list, so the
     interned-file count is the tracked-file count *)
  regions : Int_table.t; (* file id -> offset of its region *)
  mutable pages : int array array; (* the first [page_count] hold regions *)
  mutable page_count : int;
  mutable fill : int; (* the last page's first free slot; [page_size] before any page *)
  mutable previous : int; (* the previous file of the global context, or -1 *)
  contexts : Int_table.t; (* client id -> previous file, when [per_client] *)
  (* Frequency representation *)
  freq_lists : (int, Successor_list.t) Hashtbl.t;
}

let create ?(capacity = 8) ?(policy = Successor_list.Recency) ?(per_client = false) () =
  if capacity <= 0 then invalid_arg "Tracker.create: capacity must be positive";
  {
    capacity;
    policy;
    per_client;
    regions = Int_table.create ();
    pages = [||];
    page_count = 0;
    fill = page_size;
    previous = -1;
    contexts = Int_table.create ();
    freq_lists = Hashtbl.create (if policy = Successor_list.Frequency then 4096 else 1);
  }

let capacity t = t.capacity
let policy t = t.policy

(* The offset of [n] fresh slots, in one page. A fresh page holds
   [page_size] slots, or [n] when more; the directory holds one pointer
   per page and doubles. *)
let reserve t n =
  if t.fill + n > page_size then begin
    let p = t.page_count in
    if p = Array.length t.pages then begin
      let pages = Array.make (Int.max 8 (2 * p)) [||] in
      Array.blit t.pages 0 pages 0 p;
      t.pages <- pages
    end;
    t.pages.(p) <- Array.make (Int.max page_size n) 0;
    t.page_count <- p + 1;
    t.fill <- 0
  end;
  let off = ((t.page_count - 1) lsl page_bits) + t.fill in
  t.fill <- t.fill + n;
  off

(* [file]'s first successor, in a one-slot region. *)
let add_region t file succ =
  let off = reserve t 2 in
  let page = t.pages.(off lsr page_bits) and i = off land page_mask in
  page.(i) <- 1;
  page.(i + 1) <- succ;
  Int_table.set t.regions file off

(* Is [x] absent from [set.(i) .. set.(len - 1)]? *)
let rec outside (set : int array) len (x : int) i =
  i >= len || (set.(i) <> x && outside set len x (i + 1))

(* Moves [file]'s full list of [len] entries at [page.(i)] to a region
   twice the size (at most [capacity]) and enters [succ] there. *)
let relocate t file page i len succ =
  let off = reserve t (1 + Int.min (2 * len) t.capacity) in
  let page' = t.pages.(off lsr page_bits) and i' = off land page_mask in
  for j = 0 to len do
    page'.(i' + j) <- page.(i + j)
  done;
  Int_table.set t.regions file off;
  page'.(i') <- Successor_list.observe_slots page' ~off:(i' + 1) ~len ~capacity:t.capacity succ

(* Lists here are never empty, so [len land (len - 1) = 0] is exactly
   "[len] is a power of two". *)
let observe_region t prev off file =
  let page = t.pages.(off lsr page_bits) and i = off land page_mask in
  let len = page.(i) in
  if len land (len - 1) = 0 && len < t.capacity && outside page (i + 1 + len) file (i + 1) then
    relocate t prev page i len file
  else page.(i) <- Successor_list.observe_slots page ~off:(i + 1) ~len ~capacity:t.capacity file

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
let observe_trace t trace =
  for i = 0 to Agg_trace.Trace.length trace - 1 do
    observe_client t ~client:(Agg_trace.Trace.client trace i) (Agg_trace.Trace.file trace i)
  done

let successors t file =
  match t.policy with
  | Successor_list.Recency ->
      let off = Int_table.get t.regions file in
      if off < 0 then []
      else begin
        let page = t.pages.(off lsr page_bits) and i = off land page_mask in
        let rec build j acc = if j = i then acc else build (j - 1) (page.(j) :: acc) in
        build (i + page.(i)) []
      end
  | Successor_list.Frequency -> (
      match Hashtbl.find_opt t.freq_lists file with
      | Some l -> Successor_list.ranked l
      | None -> [])

let rec first_slot_outside (page : int array) set len i stop =
  if i >= stop then -1
  else if outside set len page.(i) 0 then page.(i)
  else first_slot_outside page set len (i + 1) stop

let first_successor_outside t file set ~len =
  match t.policy with
  | Successor_list.Recency ->
      let off = Int_table.get t.regions file in
      if off < 0 then -1
      else begin
        let page = t.pages.(off lsr page_bits) and i = off land page_mask in
        first_slot_outside page set len (i + 1) (i + 1 + page.(i))
      end
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
      if off < 0 then None else Some t.pages.(off lsr page_bits).((off land page_mask) + 1)
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
