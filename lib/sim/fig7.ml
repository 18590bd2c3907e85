let default_lengths = List.init 20 (fun i -> i + 1)

let run ?(lengths = default_lengths) (runner : Experiment.Runner.t) =
  let settings = runner.Experiment.Runner.settings in
  let profiles =
    [
      Agg_workload.Profile.users;
      Agg_workload.Profile.write;
      Agg_workload.Profile.server;
      Agg_workload.Profile.workstation;
    ]
  in
  (* one cell per workload: a single sort of its windows serves every
     length *)
  let span_label profile _ = Printf.sprintf "fig7/%s" profile.Agg_workload.Profile.name in
  let series =
    Experiment.grid ?profiler:(Experiment.Runner.profiler runner) ~span_label ~settings
      ~rows:profiles ~cols:[ lengths ] (fun profile lengths ->
        Agg_entropy.Entropy.sweep ~lengths (Trace_store.files ~settings profile))
    |> List.map (fun (profile, cells) ->
           {
             Experiment.label = profile.Agg_workload.Profile.name;
             points =
               List.concat_map
                 (fun (_, sweep) -> List.map (fun (l, h) -> (float_of_int l, h)) sweep)
                 cells;
           })
  in
  {
    Experiment.id = "fig7";
    title = "Successor entropy vs successor sequence length";
    panels =
      [
        {
          Experiment.name = "all workloads";
          x_label = "successor sequence length";
          y_label = "successor entropy (bits)";
          series;
        };
      ];
  }

