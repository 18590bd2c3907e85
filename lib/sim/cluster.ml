module Scheme = Agg_system.Scheme
module Cluster_sim = Agg_cluster.Cluster
module Plan = Agg_faults.Plan
module Counters = Agg_faults.Counters

let default_node_counts = [ 5 ]
let default_node_loss_rates = [ 0.0; 0.1; 0.2; 0.3 ]
let default_schemes = [ Scheme.plain_lru; Scheme.aggregating () ]
let default_replica_counts = [ 1; 3 ]

type point = {
  scheme : string;
  nodes : int;
  replicas : int;
  placement : string;
  node_loss : float;
  hit_rate : float;
  mean_latency : float;
  served : int;
  routed : int;
  failovers : int;
  degraded : int;
}

(* Independent per-node outage windows: the per-cell seed is fixed, the
   per-node independence comes from Cluster's seed derivation. *)
let node_kill_plan node_loss =
  if node_loss <= 0.0 then Plan.none
  else
    {
      Plan.none with
      Plan.seed = 23;
      outage_period = 1000;
      outage_rate = node_loss;
      outage_length = 400;
    }

let cell_config ~nodes ~replicas ~placement ~scheme ~node_loss =
  {
    Cluster_sim.default_config with
    Cluster_sim.nodes;
    replicas;
    metadata = placement;
    client_scheme = scheme;
    node_scheme = scheme;
    faults = node_kill_plan node_loss;
  }

let sweep ?(node_counts = default_node_counts) ?(node_loss_rates = default_node_loss_rates)
    ?(schemes = default_schemes) ?(replica_counts = default_replica_counts)
    ?(placements = Cluster_sim.placements) ?(profile = Agg_workload.Profile.server)
    (runner : Experiment.Runner.t) =
  let settings = runner.Experiment.Runner.settings in
  let trace = Trace_store.get ~settings profile in
  let rows =
    List.concat_map
      (fun nodes ->
        List.concat_map
          (fun scheme ->
            List.concat_map
              (fun replicas ->
                List.map (fun placement -> (nodes, scheme, replicas, placement)) placements)
              replica_counts)
          schemes)
      node_counts
  in
  let span_label (nodes, scheme, replicas, placement) node_loss =
    Printf.sprintf "cluster/%s/n%d/k%d/%s/%s/p%g" profile.Agg_workload.Profile.name nodes replicas
      (Cluster_sim.placement_name placement)
      (Scheme.name scheme) node_loss
  in
  Experiment.grid ?profiler:(Experiment.Runner.profiler runner) ~span_label ~settings ~rows
    ~cols:node_loss_rates (fun (nodes, scheme, replicas, placement) node_loss ->
      let config = cell_config ~nodes ~replicas ~placement ~scheme ~node_loss in
      let r = Cluster_sim.run config trace in
      {
        scheme = Scheme.name scheme;
        nodes;
        replicas;
        placement = Cluster_sim.placement_name placement;
        node_loss;
        hit_rate = 100.0 *. Cluster_sim.client_hit_rate r;
        mean_latency = r.Cluster_sim.mean_latency;
        served = r.Cluster_sim.server_requests;
        routed = r.Cluster_sim.routed_fetches;
        failovers = r.Cluster_sim.failovers;
        degraded = r.Cluster_sim.faults.Counters.degraded_fetches;
      })
  |> List.concat_map snd |> List.map snd

let degraded_reduction points =
  let group = Cluster_sim.placement_name Cluster_sim.Replicated_with_group in
  let agg = List.filter (fun p -> p.scheme <> "lru" && p.placement = group) points in
  match agg with
  | [] -> None
  | _ ->
      let max_loss = List.fold_left (fun acc p -> Float.max acc p.node_loss) 0.0 agg in
      let at_max = List.filter (fun p -> Float.equal p.node_loss max_loss) agg in
      let ks = List.sort_uniq compare (List.map (fun p -> p.replicas) at_max) in
      let sum k =
        List.fold_left (fun acc p -> if p.replicas = k then acc + p.degraded else acc) 0 at_max
      in
      (match (ks, List.rev ks) with
      | k_min :: _, k_max :: _ when k_min <> k_max -> Some (sum k_min, sum k_max)
      | _ -> None)

let figure ~profile points =
  let front_nodes = match points with p :: _ -> p.nodes | [] -> 5 in
  let group = Cluster_sim.placement_name Cluster_sim.Replicated_with_group in
  let shown =
    List.filter (fun p -> p.nodes = front_nodes && p.placement = group) points
  in
  let labels =
    List.sort_uniq compare (List.map (fun p -> Printf.sprintf "%s/k%d" p.scheme p.replicas) shown)
  in
  let series value =
    List.map
      (fun label ->
        {
          Experiment.label;
          points =
            List.filter_map
              (fun p ->
                if Printf.sprintf "%s/k%d" p.scheme p.replicas = label then
                  Some (p.node_loss, value p)
                else None)
              shown;
        })
      labels
  in
  let name = profile.Agg_workload.Profile.name in
  {
    Experiment.id = "cluster";
    title =
      Printf.sprintf
        "Sharded cluster under node loss (%d nodes, replicated metadata): replication keeps groups \
         flowing"
        front_nodes;
    panels =
      [
        {
          Experiment.name = Printf.sprintf "%s hit rate" name;
          x_label = "per-node loss rate";
          y_label = "client hit rate (%)";
          series = series (fun p -> p.hit_rate);
        };
        {
          Experiment.name = Printf.sprintf "%s latency" name;
          x_label = "per-node loss rate";
          y_label = "mean access latency (ms)";
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
        ("nodes", Json.int p.nodes);
        ("replicas", Json.int p.replicas);
        ("placement", Json.Str p.placement);
        ("node_loss", Json.num "%g" p.node_loss);
        ("hit_rate_pct", Json.num "%.2f" p.hit_rate);
        ("mean_latency_ms", Json.num "%.3f" p.mean_latency);
        ("served", Json.int p.served);
        ("routed", Json.int p.routed);
        ("failovers", Json.int p.failovers);
        ("degraded", Json.int p.degraded);
      ]
  in
  let verdict =
    match degraded_reduction points with
    | Some (k1, kmax) ->
        [
          ("degraded_at_max_loss_k_min", Json.int k1);
          ("degraded_at_max_loss_k_max", Json.int kmax);
          ("replication_reduces_degradation", Json.Bool (kmax < k1));
        ]
    | None -> [ ("replication_reduces_degradation", Json.Null) ]
  in
  Json.Obj
    ([
       ("sweep", Json.Str "cluster");
       ("points", Json.Arr (List.map point points));
       ( "every_request_served",
         Json.Bool (List.for_all (fun p -> p.routed + p.degraded = p.served) points) );
     ]
    @ verdict)
