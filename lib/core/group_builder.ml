module Tracker = Agg_successor.Tracker

(* The group under construction lives in [group.(0 .. len - 1)]: the
   requested file, then its members in the order they were chosen; it is
   complete at [size] files. Every step asks the tracker for the first
   successor of some file that is not yet in the group, which scans the
   successor slots in place — no successor list is materialised. Only the
   filled prefix is ever read, so the caller's buffer may be dirty. *)

(* Small groups: the requested file plus its most likely immediate
   successors (paper: "simply a matter of retrieving the requested file
   and one or two of its immediate successors"). *)
let rec immediate tracker group size len =
  if len = size then len
  else
    match Tracker.first_successor_outside tracker group.(0) group ~len with
    | -1 -> len
    | next ->
        group.(len) <- next;
        immediate tracker group size (len + 1)

(* Large groups: follow the chain of most-likely immediate successors as
   far as possible. When the chain stalls (no metadata, or only files
   already in the group), fall back to the next-ranked successor of the
   deepest member that still has one. *)
let rec extend tracker group size len current =
  if len = size then len
  else
    match Tracker.first_successor_outside tracker current group ~len with
    | -1 -> fallback tracker group size len (len - 1)
    | next ->
        group.(len) <- next;
        extend tracker group size (len + 1) next

and fallback tracker group size len deepest =
  if deepest < 0 then len
  else
    match Tracker.first_successor_outside tracker group.(deepest) group ~len with
    | -1 -> fallback tracker group size len (deepest - 1)
    | next ->
        group.(len) <- next;
        extend tracker group size (len + 1) next

let build_into tracker ~group_size file group =
  if group_size <= 0 then invalid_arg "Group_builder.build_into: group_size must be positive";
  if Array.length group < group_size then
    invalid_arg "Group_builder.build_into: buffer shorter than group_size";
  group.(0) <- file;
  if group_size = 1 then 1
  else if group_size <= 3 then immediate tracker group group_size 1
  else extend tracker group group_size 1 file

let rec to_list group i acc = if i < 0 then acc else to_list group (i - 1) (group.(i) :: acc)

let build tracker ~group_size file =
  if group_size <= 0 then invalid_arg "Group_builder.build: group_size must be positive";
  let group = Array.make group_size file in
  let len = build_into tracker ~group_size file group in
  to_list group (len - 1) []
