module Trace = Agg_trace.Trace
module Codec = Agg_trace.Codec
module Import = Agg_trace.Import
module Profile = Agg_workload.Profile
module Generator = Agg_workload.Generator
module Scheme = Agg_system.Scheme
module Cluster = Agg_cluster.Cluster
module Counters = Agg_faults.Counters
module Pool = Agg_util.Pool

type cell = {
  policy : Scenario.policy;
  point : Scenario.point;
  metrics : (string * float) list;
  series : Agg_obs.Series.t option;
}

let metric cell name = List.assoc_opt name cell.metrics

let cell_label cell =
  Scenario.point_name (("policy", Scenario.policy_name cell.policy) :: cell.point)

type check = { check_name : string; pass : bool; detail : string }

type outcome = {
  scenario : Scenario.t;
  events : int;
  cells : cell list;
  checks : check list;
  pass : bool;
  ok : bool;
}

(* --- workload loading ------------------------------------------------------ *)

let load_trace ?events_cap (t : Scenario.t) =
  let cap trace =
    match events_cap with
    | Some cap when cap < Trace.length trace -> Trace.sub trace ~pos:0 ~len:cap
    | _ -> trace
  in
  match t.Scenario.workload with
  | Scenario.Profile { profile; events; seed } -> (
      match Profile.by_name profile with
      | None -> Error (Printf.sprintf "unknown workload profile %S" profile)
      | Some p ->
          let events =
            match events_cap with Some cap -> min cap events | None -> events
          in
          Ok (Generator.generate ~seed ~events p))
  | Scenario.Trace_file { file } -> (
      match Codec.read_file file with
      | trace -> Ok (cap trace)
      | exception Codec.Parse_error { line; message } ->
          Error (Printf.sprintf "%s: line %d: %s" file line message)
      | exception Sys_error msg -> Error msg)
  | Scenario.Import_file { format; file } -> (
      match Import.of_file format file with
      | trace, _namespace -> Ok (cap trace)
      | exception Sys_error msg -> Error msg)

(* --- cells ----------------------------------------------------------------- *)

let scheme_of_policy = function
  | Scenario.Plain kind -> Scheme.Plain kind
  | Scenario.Group g -> Scheme.aggregating ~group_size:g ()

let hit_rate_pct ~accesses ~hits =
  if accesses = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int accesses

let i = float_of_int

(* Every topology is a cluster: the path is its one-client, one-node
   ring and a fleet its one-node ring. All cells report the same keys,
   the values below in the order of [Scenario.metric_names]. *)
let cluster_metrics config trace =
  let r = Cluster.run config trace in
  let f = r.Cluster.faults in
  List.combine Scenario.metric_names
    [
      i r.Cluster.accesses;
      i r.Cluster.client_hits;
      i r.Cluster.server_requests;
      i r.Cluster.server_hits;
      i r.Cluster.store_fetches;
      i r.Cluster.files_transferred;
      i r.Cluster.invalidations;
      i r.Cluster.routed_fetches;
      i r.Cluster.failovers;
      i r.Cluster.cross_shard_members;
      i r.Cluster.rebalances;
      i r.Cluster.moved_files;
      hit_rate_pct ~accesses:r.Cluster.accesses ~hits:r.Cluster.client_hits;
      r.Cluster.mean_latency;
      r.Cluster.p95_latency;
      r.Cluster.p99_latency;
      i f.Counters.lost_messages;
      i f.Counters.outage_denials;
      i f.Counters.timeouts;
      i f.Counters.retries;
      i f.Counters.degraded_fetches;
      i f.Counters.slowed_fetches;
      i f.Counters.crashes;
    ]

(* [t] is the scenario at [point] ({!Scenario.points}). *)
let run_cell (t : Scenario.t) trace policy point =
  let scheme = scheme_of_policy policy in
  (* a per-cell series only when slo rules ask for one: without slos the
     run is byte-identical to a telemetry-free build *)
  let series =
    match t.Scenario.slos with
    | [] -> None
    | s :: _ -> Some (Agg_obs.Series.create ~window:s.Scenario.slo_window)
  in
  let scope =
    match series with
    | None -> None
    | Some series -> Some (Agg_obs.Scope.create ~series ())
  in
  let cluster_base =
    {
      Cluster.default_config with
      Cluster.client_scheme = scheme;
      node_scheme = scheme;
      faults = t.Scenario.faults;
      scope;
    }
  in
  let config =
    match t.Scenario.topology with
    | Scenario.Path { client_capacity; server_capacity; server; cost } ->
        {
          Cluster.path_config with
          Cluster.client_capacity;
          node_capacity = server_capacity;
          client_scheme = scheme;
          node_scheme = scheme_of_policy server;
          cost = Scenario.cost_model cost;
          faults = t.Scenario.faults;
          scope;
        }
    | Scenario.Fleet { clients; client_capacity; server_capacity } ->
        { cluster_base with Cluster.clients; client_capacity; node_capacity = server_capacity }
    | Scenario.Cluster
        { nodes; replicas; placement; ring_seed; clients; client_capacity; node_capacity; churn }
      ->
        {
          cluster_base with
          Cluster.nodes;
          replicas;
          ring_seed;
          metadata = placement;
          clients;
          client_capacity;
          node_capacity;
          churn;
        }
  in
  { policy; point; metrics = cluster_metrics config trace; series }

(* --- rendering ------------------------------------------------------------- *)

let value_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%d" (int_of_float v)
  else
    let s = Printf.sprintf "%g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let render_cell cell =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "cell %s\n" (cell_label cell));
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %s=%s\n" k (value_str v)))
    cell.metrics;
  Buffer.contents b

let render_cells cells = String.concat "" (List.map render_cell cells)

let render_checks o =
  let b = Buffer.create 256 in
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "check %s %s (%s)\n" c.check_name (if c.pass then "pass" else "FAIL")
           c.detail))
    o.checks;
  Buffer.add_string b
    (Printf.sprintf "verdict %s\n"
       (if o.pass then "pass" else if o.scenario.Scenario.expect_violation then "violation (expected)" else "FAIL"));
  Buffer.contents b

let render_outcome o =
  Printf.sprintf "scenario %s events=%d\n%s%s" o.scenario.Scenario.name o.events
    (render_cells o.cells) (render_checks o)

(* --- invariant checks ------------------------------------------------------ *)

let get cell name = match metric cell name with Some v -> v | None -> nan

(* Check details name the point they report on: [at point] is
   [" at loss=0.1"] for a swept cell and [""] otherwise. *)
let at point = if point = [] then "" else " at " ^ Scenario.point_name point
let across points =
  match points with [ _ ] -> "" | _ -> Printf.sprintf " at %d points" (List.length points)

(* Check [f] on every cell; the detail reports the first failing cell or
   the number of cells checked. *)
let per_cell name cells f =
  let failures =
    List.filter_map
      (fun cell -> match f cell with Ok () -> None | Error d -> Some (cell, d))
      cells
  in
  match failures with
  | [] -> { check_name = name; pass = true; detail = Printf.sprintf "%d cells" (List.length cells) }
  | (cell, d) :: _ ->
      { check_name = name; pass = false;
        detail =
          Printf.sprintf "cell %s%s: %s" (Scenario.policy_name cell.policy) (at cell.point) d }

let check_conservation cells =
  per_cell "conservation" cells (fun cell ->
      let nonneg =
        List.find_opt (fun (_, v) -> v < 0.0 || Float.is_nan v) cell.metrics
      in
      match nonneg with
      | Some (k, v) -> Error (Printf.sprintf "%s=%s is negative" k (value_str v))
      | None ->
          let accesses = get cell "accesses" in
          let sum = get cell "client_hits" +. get cell "server_requests" in
          if sum <> accesses then
            Error
              (Printf.sprintf "client_hits + server_requests = %s <> accesses = %s"
                 (value_str sum) (value_str accesses))
          else if get cell "server_hits" > get cell "server_requests" then
            Error "server_hits exceed server_requests"
          else Ok ())

let check_every_request_served cells =
  per_cell "every_request_served" cells (fun cell ->
      let eq what lhs rhs =
        if lhs = rhs then Ok ()
        else Error (Printf.sprintf "%s: %s <> %s" what (value_str lhs) (value_str rhs))
      in
      Result.bind
        (eq "server_requests vs misses" (get cell "server_requests")
           (get cell "accesses" -. get cell "client_hits"))
        (fun () ->
          eq "routed + degraded vs server_requests"
            (get cell "routed_fetches" +. get cell "faults.degraded_fetches")
            (get cell "server_requests")))

let total_client_capacity (t : Scenario.t) =
  match t.Scenario.topology with
  | Scenario.Path { client_capacity; _ } -> client_capacity
  | Scenario.Fleet { clients; client_capacity; _ } -> clients * client_capacity
  | Scenario.Cluster { clients; client_capacity; _ } -> clients * client_capacity

(* Each point is bounded by Belady at its own total client capacity; the
   optimum is computed once per distinct capacity. *)
let check_belady points trace cells =
  let plain = List.filter (fun c -> match c.policy with Scenario.Plain _ -> true | _ -> false) cells in
  match plain with
  | [] ->
      { check_name = "belady_bound"; pass = true; detail = "no plain cells in the matrix" }
  | _ ->
      let optimal =
        List.sort_uniq Int.compare (List.map (fun (_, t) -> total_client_capacity t) points)
        |> List.map (fun capacity ->
               let optimum = Agg_cache.Belady.simulate ~capacity (Trace.files trace) in
               (capacity, optimum.Agg_cache.Belady.hits))
      in
      per_cell "belady_bound" plain (fun cell ->
          let capacity = total_client_capacity (List.assoc cell.point points) in
          let best = List.assoc capacity optimal in
          let hits = get cell "client_hits" in
          if hits <= float_of_int best then Ok ()
          else
            Error
              (Printf.sprintf "client_hits=%s beat Belady=%d at capacity %d" (value_str hits)
                 best capacity))

(* Latency floats depend on group-fetch vs demand-fetch cost accounting,
   so the g = 1 ≡ LRU identity is stated over the load counters only. *)
let load_counters cell =
  List.filter
    (fun (k, _) -> not (List.mem k [ "hit_rate"; "mean_latency"; "p95_latency"; "p99_latency" ]))
    cell.metrics

(* The identity holds at every point: g1 and LRU run side by side on
   each point's scenario. *)
let check_g1_lru points trace =
  let compare_at (point, t) =
    let a = load_counters (run_cell t trace (Scenario.Plain Agg_cache.Cache.Lru) point) in
    let b = load_counters (run_cell t trace (Scenario.Group 1) point) in
    ( List.length a,
      List.filter_map
        (fun (k, v) ->
          match List.assoc_opt k b with
          | Some v' when v' = v -> None
          | Some v' ->
              Some (Printf.sprintf "%s: lru=%s g1=%s%s" k (value_str v) (value_str v') (at point))
          | None -> Some (Printf.sprintf "%s missing from g1%s" k (at point)))
        a )
  in
  let results = List.map compare_at points in
  match List.concat_map snd results with
  | [] ->
      { check_name = "g1_equals_lru"; pass = true;
        detail =
          Printf.sprintf "%d load counters equal%s" (fst (List.hd results)) (across points) }
  | d :: _ -> { check_name = "g1_equals_lru"; pass = false; detail = d }

let check_jobs_invariance run_cells =
  let one = render_cells (run_cells 1) in
  let two = render_cells (run_cells 2) in
  if String.equal one two then
    { check_name = "jobs_invariance"; pass = true;
      detail = Printf.sprintf "jobs=1 and jobs=2 byte-identical (%d bytes)" (String.length one) }
  else { check_name = "jobs_invariance"; pass = false; detail = "jobs=1 and jobs=2 renders differ" }

let cells_of policy cells =
  List.filter (fun c -> Scenario.policy_name c.policy = Scenario.policy_name policy) cells

let absent name policy =
  { check_name = name; pass = false;
    detail = Printf.sprintf "policy %s not in the matrix" (Scenario.policy_name policy) }

(* An ordering holds when, at every point of the other coordinates, the
   [lhs] cell's metric is below (or at most) the [rhs] cell's. The detail
   shows the first failing point, or the closest one when all hold. *)
let check_ordered name cells ~order ~metric ~field ~lhs ~rhs =
  let coordinates cell = ("policy", Scenario.policy_name cell.policy) :: cell.point in
  let valued v cell = List.assoc_opt field (coordinates cell) = Some v in
  let others cell = List.remove_assoc field (coordinates cell) in
  let pairs =
    List.concat_map
      (fun l ->
        List.filter_map
          (fun r ->
            if valued rhs r && others r = others l then Some (others l, get l metric, get r metric)
            else None)
          cells)
      (List.filter (valued lhs) cells)
  in
  let holds (_, a, b) = match order with Scenario.Below -> a < b | Scenario.At_most -> a <= b in
  let show (point, a, b) =
    Printf.sprintf "%s(%s=%s: %s, %s=%s: %s)"
      (if point = [] then "" else Scenario.point_name point ^ " ")
      field lhs (value_str a) field rhs (value_str b)
  in
  let margin (_, a, b) = b -. a in
  match List.find_opt (fun p -> not (holds p)) pairs with
  | Some p -> { check_name = name; pass = false; detail = "fails at " ^ show p }
  | None -> (
      match List.stable_sort (fun p q -> Float.compare (margin p) (margin q)) pairs with
      | [] -> { check_name = name; pass = true; detail = "0 points" }
      | closest :: _ ->
          { check_name = name; pass = true;
            detail = Printf.sprintf "%d points; closest %s" (List.length pairs) (show closest) })

(* A hit-rate bound holds when every cell of its policy meets it; the
   detail shows the cell furthest toward the bound, which is a failing
   one whenever any fails. *)
let check_expectation cells e =
  let name = Scenario.expectation_name e in
  match e with
  | Scenario.Ordered { order; metric; field; lhs; rhs } ->
      check_ordered name cells ~order ~metric ~field ~lhs ~rhs
  | Scenario.Hit_rate_min { policy; percent } | Scenario.Hit_rate_max { policy; percent } -> (
      let at_least = match e with Scenario.Hit_rate_min _ -> true | _ -> false in
      let toward_bound (r, _) (r', _) =
        if at_least then Float.compare r r' else Float.compare r' r
      in
      let rates = List.map (fun c -> (get c "hit_rate", c.point)) (cells_of policy cells) in
      match List.stable_sort toward_bound rates with
      | [] -> absent name policy
      | (rate, point) :: _ ->
          { check_name = name;
            pass = (if at_least then rate >= percent else rate <= percent);
            detail = Printf.sprintf "hit_rate=%s%s" (value_str rate) (at point) })

(* One cell under an slo rule: the number of windows checked, or the
   first violating window. The rule holds iff the windowed metric
   satisfies its bound in every checked window: non-empty windows
   starting at or after [slo_after]. *)
let slo_cell (s : Scenario.slo) cell =
  match cell.series with
  | None -> Error "no telemetry series for this cell"
  | Some series ->
      let w = Agg_obs.Series.window_size series in
      let n = Agg_obs.Series.windows series in
      let checked = ref 0 in
      let violation = ref None in
      for wi = 0 to n - 1 do
        if
          !violation = None
          && wi * w >= s.Scenario.slo_after
          && Agg_obs.Counter.accesses (Agg_obs.Series.counts series wi) > 0
        then begin
          let value =
            match s.Scenario.slo_metric with
            | Scenario.Slo_hit_rate -> Some (Agg_obs.Series.hit_rate series wi)
            | Scenario.Slo_degraded_rate -> Some (Agg_obs.Series.degraded_rate series wi)
            | Scenario.Slo_p99_latency ->
                (* a window of pure waits with no completed fetch has no
                   latency sample: nothing to check *)
                Option.map
                  (fun us -> float_of_int us /. 1000.0)
                  (Agg_obs.Series.latency_quantile series wi 0.99)
          in
          match value with
          | None -> ()
          | Some v ->
              incr checked;
              let holds = match s.Scenario.slo_bound with `Min b -> v >= b | `Max b -> v <= b in
              if not holds then violation := Some (wi, v)
        end
      done;
      (match !violation with
      | Some (wi, v) ->
          Error
            (Printf.sprintf "window %d (accesses %d..%d): %s=%s" wi (wi * w)
               (((wi + 1) * w) - 1)
               (Scenario.slo_metric_name s.Scenario.slo_metric)
               (value_str v))
      | None -> Ok !checked)

(* An slo rule holds when it holds in every cell of its policy; the
   detail pins the first violating cell's point and window. *)
let check_slo cells (s : Scenario.slo) =
  let name = "slo " ^ Scenario.slo_name s in
  match cells_of s.Scenario.slo_policy cells with
  | [] -> absent name s.Scenario.slo_policy
  | mine -> (
      let results = List.map (fun c -> (c, slo_cell s c)) mine in
      let failure (c, r) = match r with Error d -> Some (c, d) | Ok _ -> None in
      match List.find_map failure results with
      | Some (c, d) ->
          { check_name = name; pass = false;
            detail = (if c.point = [] then d else Scenario.point_name c.point ^ ": " ^ d) }
      | None ->
          let checked =
            List.fold_left (fun acc (_, r) -> acc + Result.value ~default:0 r) 0 results
          in
          { check_name = name; pass = true; detail = Printf.sprintf "%d windows checked" checked })

(* --- the executor ---------------------------------------------------------- *)

let run ?(jobs = 1) ?events_cap ?scope (t : Scenario.t) =
  match Scenario.validate t with
  | exception Invalid_argument msg -> Error msg
  | () -> (
      match load_trace ?events_cap t with
      | Error _ as e -> e
      | Ok trace ->
          (* the cells: the policy matrix crossed with the sweep's points *)
          let points = Scenario.points t in
          let specs =
            List.concat_map
              (fun policy -> List.map (fun (point, at) -> (policy, point, at)) points)
              t.Scenario.policies
          in
          let run_spec (policy, point, at) = run_cell at trace policy point in
          let run_one ((policy, point, _) as spec) =
            match Agg_obs.Scope.profiler scope with
            | None -> run_spec spec
            | Some r ->
                let label =
                  String.concat "/"
                    ([ t.Scenario.name; Scenario.policy_name policy ]
                    @ if point = [] then [] else [ Scenario.point_name point ])
                in
                Agg_obs.Span.record r ~cat:"scenario" label (fun () -> run_spec spec)
          in
          let cells = Pool.map ~jobs run_one specs in
          let run_cells jobs = Pool.map ~jobs run_spec specs in
          let invariant_check = function
            | Scenario.Conservation -> check_conservation cells
            | Scenario.Belady_bound -> check_belady points trace cells
            | Scenario.G1_equals_lru -> check_g1_lru points trace
            | Scenario.Jobs_invariance -> check_jobs_invariance run_cells
            | Scenario.Every_request_served -> check_every_request_served cells
          in
          let checks =
            List.map invariant_check t.Scenario.invariants
            @ List.map (check_expectation cells) t.Scenario.expectations
            @ List.map (check_slo cells) t.Scenario.slos
          in
          let pass = List.for_all (fun (c : check) -> c.pass) checks in
          let ok = if t.Scenario.expect_violation then not pass else pass in
          Ok { scenario = t; events = Trace.length trace; cells; checks; pass; ok })
