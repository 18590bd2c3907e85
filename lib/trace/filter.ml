open Agg_cache

(* The caches see each file's dense key, so no index spans the trace's
   id range (ids near 10^12 would otherwise size a directory by the
   largest id); the events keep the trace's own ids. Each loop reads the
   trace's columns by index and copies a missed event's columns into the
   output, so no event is built. *)
let keep_miss out trace i =
  Trace.push out ~seq:(Trace.length out) ~client:(Trace.client trace i) ~op:(Trace.op trace i)
    (Trace.file trace i)

(* Calls [f i] for each event [i] that misses in one cache. *)
let iter_misses ~kind ~capacity trace f =
  let cache = Cache.create kind ~capacity in
  let ids = File_id.Dense.create () in
  for i = 0 to Trace.length trace - 1 do
    if not (Cache.access cache (File_id.Dense.intern ids (Trace.file trace i) :> int)) then f i
  done

let miss_stream ?(kind = Cache.Lru) ~capacity trace =
  let out = Trace.create () in
  iter_misses ~kind ~capacity trace (keep_miss out trace);
  out

(* One interner for every client: a file has one key in all caches. *)
let miss_stream_per_client ?(kind = Cache.Lru) ~capacity trace =
  let caches : (int, Cache.t) Hashtbl.t = Hashtbl.create 16 in
  let cache_for client =
    match Hashtbl.find_opt caches client with
    | Some c -> c
    | None ->
        let c = Cache.create kind ~capacity in
        Hashtbl.replace caches client c;
        c
  in
  let ids = File_id.Dense.create () in
  let out = Trace.create () in
  for i = 0 to Trace.length trace - 1 do
    let cache = cache_for (Trace.client trace i) in
    if not (Cache.access cache (File_id.Dense.intern ids (Trace.file trace i) :> int)) then
      keep_miss out trace i
  done;
  out

let miss_count ?(kind = Cache.Lru) ~capacity trace =
  let misses = ref 0 in
  iter_misses ~kind ~capacity trace (fun _ -> incr misses);
  !misses
