let default_capacities = [ 250; 500; 1_000; 2_000; 4_000 ]
let default_verdict_capacity = 1_000
let policies = [ "lru"; "landlord"; "bundle"; "g5" ]

type cell = {
  policy : string;
  profile : string;
  capacity : int;
  byte_hit_rate : float;
  cost_saved_rate : float;
  total_cost : int;
}

(* Every policy is charged against the same denominators, computed once
   per profile from the weight table alone. *)
let totals ~weight_of files =
  let bytes = ref 0 and cost = ref 0 in
  Array.iter
    (fun file ->
      let w : Agg_cache.Policy.weight = weight_of file in
      bytes := !bytes + w.Agg_cache.Policy.size;
      cost := !cost + w.Agg_cache.Policy.cost)
    files;
  (!bytes, !cost)

let cell_of_weighted ~policy ~profile ~capacity ~cost_accessed
    (w : Agg_cache.Cache.weighted_stats) =
  {
    policy;
    profile;
    capacity;
    byte_hit_rate = Agg_util.Stats.ratio w.Agg_cache.Cache.bytes_hit w.Agg_cache.Cache.bytes_accessed;
    cost_saved_rate =
      Agg_util.Stats.ratio (cost_accessed - w.Agg_cache.Cache.cost_fetched) cost_accessed;
    total_cost = w.Agg_cache.Cache.cost_fetched + w.Agg_cache.Cache.cost_prefetched;
  }

let run_facade cache files =
  Array.iter (fun file -> ignore (Agg_cache.Cache.access cache file)) files;
  Agg_cache.Cache.weighted_stats cache

(* The bundle policy served the way an aggregating client would: on a
   miss the predicted retrieval group arrives as one Landlord bundle, the
   anchor's cost counting as the demand fetch and the speculative
   members' costs as prefetch spend. *)
let run_bundle ~weight_of ~capacity ~group_size files =
  let tracker =
    let c = Agg_core.Config.default in
    Agg_successor.Tracker.create ~capacity:c.Agg_core.Config.successor_capacity
      ~policy:c.Agg_core.Config.metadata_policy ()
  in
  let b = Agg_baselines.Bundle.create ~capacity in
  let bytes_accessed = ref 0 and bytes_hit = ref 0 in
  let cost_fetched = ref 0 and cost_prefetched = ref 0 in
  Array.iter
    (fun file ->
      Agg_successor.Tracker.observe tracker file;
      let w : Agg_cache.Policy.weight = weight_of file in
      bytes_accessed := !bytes_accessed + w.Agg_cache.Policy.size;
      if Agg_baselines.Bundle.hit b file ~cost:w.Agg_cache.Policy.cost then
        bytes_hit := !bytes_hit + w.Agg_cache.Policy.size
      else begin
        cost_fetched := !cost_fetched + w.Agg_cache.Policy.cost;
        let group = Agg_core.Group_builder.build tracker ~group_size file in
        List.iter
          (fun m ->
            if m <> file && not (Agg_baselines.Bundle.mem b m) then
              cost_prefetched :=
                !cost_prefetched + (weight_of m).Agg_cache.Policy.cost)
          group;
        ignore (Agg_baselines.Bundle.request_bundle b ~weight_of group)
      end)
    files;
  {
    Agg_cache.Cache.bytes_accessed = !bytes_accessed;
    bytes_hit = !bytes_hit;
    cost_fetched = !cost_fetched;
    cost_prefetched = !cost_prefetched;
  }

let run_cell ~profile ~weight_of ~files ~cost_accessed policy capacity =
  let weighted =
    match policy with
    | "lru" -> run_facade (Agg_cache.Cache.create ~weight_of Agg_cache.Cache.Lru ~capacity) files
    | "landlord" ->
        run_facade
          (Agg_cache.Cache.of_policy ~weight_of
             (module Agg_baselines.Landlord)
             (Agg_baselines.Landlord.create ~capacity))
          files
    | "bundle" -> run_bundle ~weight_of ~capacity ~group_size:5 files
    | "g5" ->
        let config = Agg_core.Config.with_group_size 5 Agg_core.Config.default in
        let cache = Agg_core.Client_cache.create ~config ~weight_of ~capacity () in
        ignore (Agg_core.Client_cache.run_files cache files);
        let m = Agg_core.Client_cache.weighted_metrics cache in
        {
          Agg_cache.Cache.bytes_accessed = m.Agg_core.Metrics.bytes_accessed;
          bytes_hit = m.Agg_core.Metrics.bytes_hit;
          cost_fetched = m.Agg_core.Metrics.cost_fetched;
          cost_prefetched = m.Agg_core.Metrics.cost_prefetched;
        }
    | p -> invalid_arg (Printf.sprintf "Weighted.run_cell: unknown policy %S" p)
  in
  cell_of_weighted ~policy ~profile:profile.Agg_workload.Profile.name ~capacity ~cost_accessed
    weighted

let sweep ?(capacities = default_capacities) (runner : Experiment.Runner.t) =
  let settings = runner.Experiment.Runner.settings in
  List.concat_map
    (fun profile ->
      let files = Trace_store.files ~settings profile in
      let weight_of file = Agg_workload.Profile.weight_of profile file in
      let _, cost_accessed = totals ~weight_of files in
      let span_label policy capacity =
        Printf.sprintf "weighted/%s/%s/c%d" profile.Agg_workload.Profile.name policy capacity
      in
      Experiment.grid
        ?profiler:(Experiment.Runner.profiler runner)
        ~span_label ~settings ~rows:policies ~cols:capacities
        (run_cell ~profile ~weight_of ~files ~cost_accessed)
      |> List.concat_map (fun (_, cols) -> List.map snd cols))
    Agg_workload.Profile.sized

let panel_pair ~profile cells =
  let series_of value =
    List.map
      (fun policy ->
        {
          Experiment.label = policy;
          points =
            List.filter_map
              (fun c ->
                if c.policy = policy && c.profile = profile then
                  Some (float_of_int c.capacity, value c)
                else None)
              cells;
        })
      policies
  in
  [
    {
      Experiment.name = profile ^ " (byte-weighted hit rate)";
      x_label = "cache capacity (size units)";
      y_label = "byte-weighted hit rate";
      series = series_of (fun c -> c.byte_hit_rate);
    };
    {
      Experiment.name = profile ^ " (total retrieval cost)";
      x_label = "cache capacity (size units)";
      y_label = "total retrieval cost";
      series = series_of (fun c -> float_of_int c.total_cost);
    };
  ]

let figure cells =
  {
    Experiment.id = "weighted";
    title = "Weighted caching: size/cost-aware policies vs the aggregating cache";
    panels =
      List.concat_map
        (fun p -> panel_pair ~profile:p.Agg_workload.Profile.name cells)
        Agg_workload.Profile.sized;
  }

type verdict = {
  v_profile : string;
  v_capacity : int;
  g5_cost : int;
  landlord_cost : int;
  g5_wins : bool;
}

let verdicts cells =
  List.filter_map
    (fun profile ->
      let name = profile.Agg_workload.Profile.name in
      let cost policy =
        List.find_opt
          (fun c ->
            c.profile = name && c.policy = policy && c.capacity = default_verdict_capacity)
          cells
        |> Option.map (fun c -> c.total_cost)
      in
      match (cost "g5", cost "landlord") with
      | Some g5_cost, Some landlord_cost ->
          Some
            {
              v_profile = name;
              v_capacity = default_verdict_capacity;
              g5_cost;
              landlord_cost;
              g5_wins = g5_cost < landlord_cost;
            }
      | _ -> None)
    Agg_workload.Profile.sized

let json_of_cells cells =
  let module Json = Agg_util.Json in
  let cell c =
    Json.Obj
      [
        ("profile", Json.Str c.profile);
        ("policy", Json.Str c.policy);
        ("capacity", Json.int c.capacity);
        ("byte_hit_rate", Json.num "%.6f" c.byte_hit_rate);
        ("cost_saved_rate", Json.num "%.6f" c.cost_saved_rate);
        ("total_retrieval_cost", Json.int c.total_cost);
      ]
  in
  let verdict v =
    Json.Obj
      [
        ("profile", Json.Str v.v_profile);
        ("capacity", Json.int v.v_capacity);
        ("g5_total_cost", Json.int v.g5_cost);
        ("landlord_total_cost", Json.int v.landlord_cost);
        ("g5_beats_landlord", Json.Bool v.g5_wins);
      ]
  in
  Json.Obj
    [
      ("cells", Json.Arr (List.map cell cells));
      ("verdict", Json.Arr (List.map verdict (verdicts cells)));
    ]
