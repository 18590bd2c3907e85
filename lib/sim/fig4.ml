module Scheme = Agg_system.Scheme

let default_filter_capacities = [ 50; 100; 150; 200; 250; 300; 350; 400; 450; 500 ]
let default_server_capacity = 300

let paper_rows =
  List.map
    (fun scheme -> (Scheme.name scheme, scheme, false))
    [ Scheme.aggregating (); Scheme.plain_lru; Scheme.Plain Agg_cache.Cache.Lfu ]

let panel ?(filter_capacities = default_filter_capacities) ~(runner : Experiment.Runner.t) ~name
    rows profile =
  let settings = runner.Experiment.Runner.settings in
  (* the simulation only consumes file ids: use the memoised id array *)
  let files = Trace_store.files ~settings profile in
  let span_label (label, _, _) filter_capacity =
    Printf.sprintf "fig4/%s/%s/f%d" profile.Agg_workload.Profile.name label filter_capacity
  in
  let series =
    Experiment.grid ?profiler:(Experiment.Runner.profiler runner) ~span_label ~settings ~rows
      ~cols:filter_capacities
      (fun ((_, scheme, cooperative) as row) filter_capacity ->
        let sim =
          Agg_core.Server_cache.create ~cooperative
            ~obs:(Experiment.Runner.sink runner (span_label row filter_capacity))
            ~filter_kind:Agg_cache.Cache.Lru ~filter_capacity
            ~server_capacity:default_server_capacity ~scheme ()
        in
        let m = Agg_core.Server_cache.run_files sim files in
        100.0 *. Agg_core.Metrics.server_hit_rate m)
    |> List.map (fun ((label, _, _), points) ->
           {
             Experiment.label;
             points = List.map (fun (capacity, y) -> (float_of_int capacity, y)) points;
           })
  in
  { Experiment.name; x_label = "filter capacity (files)"; y_label = "server hit rate (%)"; series }

let run (runner : Experiment.Runner.t) =
  let panel_for profile =
    panel ~runner ~name:profile.Agg_workload.Profile.name paper_rows profile
  in
  {
    Experiment.id = "fig4";
    title =
      Printf.sprintf "Server cache hit rate vs client cache size (server capacity = %d)"
        default_server_capacity;
    panels =
      [
        panel_for Agg_workload.Profile.workstation;
        panel_for Agg_workload.Profile.users;
        panel_for Agg_workload.Profile.server;
      ];
  }
