open Agg_cache

(* The caches see each file's dense key, so no index spans the trace's
   id range (ids near 10^12 would otherwise size a directory by the
   largest id); the events keep the trace's own ids. *)
let fold_misses ~kind ~capacity trace ~init ~f =
  let cache = Cache.create kind ~capacity in
  let ids = File_id.Dense.create () in
  Trace.fold
    (fun acc (e : Event.t) ->
      if Cache.access cache (File_id.Dense.intern ids e.file :> int) then acc else f acc e)
    init trace

let miss_stream ?(kind = Cache.Lru) ~capacity trace =
  let out = Trace.create () in
  let () =
    fold_misses ~kind ~capacity trace ~init:()
      ~f:(fun () (e : Event.t) -> Trace.append out { e with seq = Trace.length out })
  in
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
  Trace.iter
    (fun (e : Event.t) ->
      if not (Cache.access (cache_for e.client) (File_id.Dense.intern ids e.file :> int)) then
        Trace.append out { e with seq = Trace.length out })
    trace;
  out

let miss_count ?(kind = Cache.Lru) ~capacity trace =
  fold_misses ~kind ~capacity trace ~init:0 ~f:(fun acc _ -> acc + 1)
