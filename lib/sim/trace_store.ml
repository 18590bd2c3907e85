type key = { profile : Agg_workload.Profile.t; seed : int; events : int }

(* Each entry owns a mutex so generating one trace does not block
   lookups of others; the global lock only guards the table itself. *)
type entry = {
  lock : Mutex.t;
  mutable trace : Agg_trace.Trace.t option;
  mutable files : Agg_trace.File_id.t array option;
}

let table : (key, entry) Hashtbl.t = Hashtbl.create 16
let table_lock = Mutex.create ()

let entry_of key =
  Mutex.protect table_lock (fun () ->
      match Hashtbl.find_opt table key with
      | Some e -> e
      | None ->
          let e = { lock = Mutex.create (); trace = None; files = None } in
          Hashtbl.add table key e;
          e)

let key_of ~(settings : Experiment.settings) profile =
  { profile; seed = settings.seed; events = settings.events }

(* The entry's trace, generated on first use; the caller holds [e.lock]. *)
let trace_of e key =
  match e.trace with
  | Some trace -> trace
  | None ->
      let trace = Agg_workload.Generator.generate ~seed:key.seed ~events:key.events key.profile in
      e.trace <- Some trace;
      trace

let get ~settings profile =
  let key = key_of ~settings profile in
  let e = entry_of key in
  Mutex.protect e.lock (fun () -> trace_of e key)

let files ~settings profile =
  let key = key_of ~settings profile in
  let e = entry_of key in
  Mutex.protect e.lock (fun () ->
      match e.files with
      | Some files -> files
      | None ->
          let files = Agg_trace.Trace.files (trace_of e key) in
          e.files <- Some files;
          files)

let size () = Mutex.protect table_lock (fun () -> Hashtbl.length table)
let reset () = Mutex.protect table_lock (fun () -> Hashtbl.reset table)
