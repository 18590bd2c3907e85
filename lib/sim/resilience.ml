module Scheme = Agg_system.Scheme
module Cluster = Agg_cluster.Cluster
module Plan = Agg_faults.Plan
module Counters = Agg_faults.Counters

let default_loss_rates = [ 0.0; 0.05; 0.1; 0.15; 0.2; 0.3 ]
let default_schemes = [ Scheme.plain_lru; Scheme.aggregating () ]

type point = {
  scheme : string;
  loss_rate : float;
  hit_rate : float;
  mean_latency : float;
  timeouts : int;
  retries : int;
  degraded_fetches : int;
}

let sweep ?(loss_rates = default_loss_rates) ?(schemes = default_schemes)
    ?(profile = Agg_workload.Profile.server) (runner : Experiment.Runner.t) =
  let settings = runner.Experiment.Runner.settings in
  let trace = Trace_store.get ~settings profile in
  let span_label scheme loss_rate =
    Printf.sprintf "resilience/%s/%s/p%g" profile.Agg_workload.Profile.name (Scheme.name scheme)
      loss_rate
  in
  Experiment.grid ?profiler:(Experiment.Runner.profiler runner) ~span_label ~settings
    ~rows:schemes ~cols:loss_rates (fun scheme loss_rate ->
      let faults = { Plan.none with Plan.loss_rate } in
      let config = { Cluster.path_config with Cluster.client_scheme = scheme; faults } in
      let r = Cluster.run config trace in
      {
        scheme = Scheme.name scheme;
        loss_rate;
        hit_rate = 100.0 *. Cluster.client_hit_rate r;
        mean_latency = r.Cluster.mean_latency;
        timeouts = r.Cluster.faults.Counters.timeouts;
        retries = r.Cluster.faults.Counters.retries;
        degraded_fetches = r.Cluster.faults.Counters.degraded_fetches;
      })
  |> List.concat_map snd |> List.map snd

let hit_rate_advantage ~loss_rate points =
  let rate scheme =
    List.find_opt (fun p -> p.scheme = scheme && Float.equal p.loss_rate loss_rate) points
    |> Option.map (fun p -> p.hit_rate)
  in
  match (rate "g5", rate "lru") with Some g, Some l -> Some (g -. l) | _ -> None

let figure ~profile points =
  let labels = List.sort_uniq compare (List.map (fun p -> p.scheme) points) in
  let series value =
    List.map
      (fun label ->
        {
          Experiment.label;
          points =
            List.filter_map
              (fun p -> if p.scheme = label then Some (p.loss_rate, value p) else None)
              points;
        })
      labels
  in
  let name = profile.Agg_workload.Profile.name in
  {
    Experiment.id = "resilience";
    title = "Resilience to message loss: aggregating client (g5) vs plain LRU";
    panels =
      [
        {
          Experiment.name = Printf.sprintf "%s hit rate" name;
          x_label = "message loss rate";
          y_label = "client hit rate (%)";
          series = series (fun p -> p.hit_rate);
        };
        {
          Experiment.name = Printf.sprintf "%s latency" name;
          x_label = "message loss rate";
          y_label = "mean demand latency (ms)";
          series = series (fun p -> p.mean_latency);
        };
      ];
  }

let json_of_points points =
  let module Json = Agg_util.Json in
  let point p =
    Json.Obj
      [
        ("scheme", Json.Str p.scheme);
        ("loss_rate", Json.num "%g" p.loss_rate);
        ("hit_rate_pct", Json.num "%.2f" p.hit_rate);
        ("mean_latency_ms", Json.num "%.3f" p.mean_latency);
        ("timeouts", Json.int p.timeouts);
        ("retries", Json.int p.retries);
        ("degraded_fetches", Json.int p.degraded_fetches);
      ]
  in
  let verdict =
    match hit_rate_advantage ~loss_rate:0.1 points with
    | Some d ->
        [
          ("g5_hit_rate_advantage_at_10pct_loss", Json.num "%.2f" d);
          ("g5_beats_lru_at_10pct_loss", Json.Bool (d > 0.0));
        ]
    | None -> [ ("g5_beats_lru_at_10pct_loss", Json.Null) ]
  in
  Json.Obj
    ([ ("sweep", Json.Str "resilience"); ("points", Json.Arr (List.map point points)) ] @ verdict)
