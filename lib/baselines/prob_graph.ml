module Client_cache = Agg_core.Client_cache

(* The graph is the model; the cache and its prefetch accounting are a
   plain engine's, which admits the graph's candidates. *)
type t = {
  lookahead : int;
  threshold : float;
  engine : Client_cache.t;
  weights : (int, (int, int) Hashtbl.t) Hashtbl.t; (* src -> dst -> count *)
  accesses_of : (int, int) Hashtbl.t; (* src -> times accessed (chance denominator) *)
  mutable window : int array; (* the last [lookahead] accesses, oldest first *)
  mutable filled : int; (* members in [window], at its front *)
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
    (* grown by doubling up to [lookahead] as the first accesses fill it *)
    window = Array.make (Int.min lookahead 16) 0;
    filled = 0;
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

(* [true] when [file] is among the first [n] members of [window]. *)
let rec in_window window file n = n > 0 && (window.(n - 1) = file || in_window window file (n - 1))

(* Appends [file] to the window, dropping the oldest member once the
   window holds [lookahead]. *)
let slide t file =
  let n = t.filled in
  if n < t.lookahead then begin
    if n = Array.length t.window then begin
      let w = Array.make (Int.min t.lookahead (2 * n)) 0 in
      for i = 0 to n - 1 do
        w.(i) <- t.window.(i)
      done;
      t.window <- w
    end;
    t.window.(n) <- file;
    t.filled <- n + 1
  end
  else begin
    let w = t.window in
    for i = 1 to n - 1 do
      w.(i - 1) <- w.(i)
    done;
    w.(n - 1) <- file
  end

let learn t file =
  (* Every file currently in the lookahead window gains an edge to the new
     access, oldest first; a member that also occurs earlier in the window
     was counted there, so each distinct member counts once. Then the
     window slides. *)
  let w = t.window in
  for j = 0 to t.filled - 1 do
    let src = w.(j) in
    if src <> file && not (in_window w src j) then bump_edge t ~src ~dst:file
  done;
  let c = Option.value ~default:0 (Hashtbl.find_opt t.accesses_of file) in
  Hashtbl.replace t.accesses_of file (c + 1);
  slide t file

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
  for i = 0 to Agg_trace.Trace.length trace - 1 do
    ignore (access t (Agg_trace.Trace.file trace i))
  done;
  metrics t
