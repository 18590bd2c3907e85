module Client_cache = Agg_core.Client_cache

(* The graph is the model; the cache and its prefetch accounting are a
   plain engine's, which admits the graph's candidates. *)
type t = {
  lookahead : int;
  threshold : float;
  engine : Client_cache.t;
  weights : (int, (int, int) Hashtbl.t) Hashtbl.t; (* src -> dst -> count *)
  accesses_of : (int, int) Hashtbl.t; (* src -> times accessed (chance denominator) *)
  window : int Queue.t; (* the last [lookahead] accesses *)
}

let create ?(lookahead = 2) ?(threshold = 0.1) ~capacity () =
  if lookahead <= 0 then invalid_arg "Prob_graph.create: lookahead must be positive";
  if threshold <= 0.0 || threshold > 1.0 then
    invalid_arg "Prob_graph.create: threshold must be in (0, 1]";
  {
    lookahead;
    threshold;
    engine = Client_cache.of_scheme (Client_cache.Plain Agg_cache.Cache.Lru) ~capacity;
    weights = Hashtbl.create 4096;
    accesses_of = Hashtbl.create 4096;
    window = Queue.create ();
  }

let bump_edge t ~src ~dst =
  let table =
    match Hashtbl.find_opt t.weights src with
    | Some table -> table
    | None ->
        let table = Hashtbl.create 4 in
        Hashtbl.replace t.weights src table;
        table
  in
  let c = Option.value ~default:0 (Hashtbl.find_opt table dst) in
  Hashtbl.replace table dst (c + 1)

let learn t file =
  (* Every file currently in the lookahead window gains an edge to the new
     access (each distinct window member once); then the window slides. *)
  let seen = Hashtbl.create 4 in
  Queue.iter
    (fun src ->
      if src <> file && not (Hashtbl.mem seen src) then begin
        Hashtbl.replace seen src ();
        bump_edge t ~src ~dst:file
      end)
    t.window;
  let c = Option.value ~default:0 (Hashtbl.find_opt t.accesses_of file) in
  Hashtbl.replace t.accesses_of file (c + 1);
  Queue.push file t.window;
  if Queue.length t.window > t.lookahead then ignore (Queue.pop t.window)

let chance t ~src ~dst =
  match Hashtbl.find_opt t.weights src with
  | None -> 0.0
  | Some table ->
      let w = Option.value ~default:0 (Hashtbl.find_opt table dst) in
      let n = Option.value ~default:0 (Hashtbl.find_opt t.accesses_of src) in
      (* [dst] re-accessed while [src] was still in the window counts
         more than once per [src] access; clamp the estimate. *)
      Float.min 1.0 (Agg_util.Stats.ratio w n)

let prefetch_candidates t file =
  match Hashtbl.find_opt t.weights file with
  | None -> []
  | Some table ->
      let n = Option.value ~default:0 (Hashtbl.find_opt t.accesses_of file) in
      if n = 0 then []
      else
        Hashtbl.fold
          (fun dst w acc ->
            if float_of_int w /. float_of_int n >= t.threshold then dst :: acc else acc)
          table []

let access t file =
  learn t file;
  let hit = Client_cache.access t.engine file in
  (* Unlike the aggregating cache, the prefetcher acts on *every* access
     that clears the probability bar, hit or miss. *)
  List.iter
    (fun dst -> Client_cache.admit t.engine (Client_cache.intern t.engine dst))
    (prefetch_candidates t file);
  hit

let metrics t = Client_cache.metrics t.engine

let run t trace =
  Agg_trace.Trace.iter (fun (e : Agg_trace.Event.t) -> ignore (access t e.file)) trace;
  metrics t
