let default_filter_capacities = [ 1; 10; 50; 100; 500; 1000 ]

let panel ?(filter_capacities = default_filter_capacities) ?(lengths = Fig7.default_lengths)
    ~(runner : Experiment.Runner.t) profile =
  let settings = runner.Experiment.Runner.settings in
  let trace = Trace_store.get ~settings profile in
  (* one cell per filter capacity: filter the miss stream, then one sort
     of its windows serves every length *)
  let span_label capacity _ =
    Printf.sprintf "fig8/%s/f%d" profile.Agg_workload.Profile.name capacity
  in
  let series =
    Experiment.grid ?profiler:(Experiment.Runner.profiler runner) ~span_label ~settings
      ~rows:filter_capacities ~cols:[ lengths ] (fun capacity lengths ->
        Agg_entropy.Entropy.sweep ~lengths
          (Agg_trace.Trace.files (Agg_trace.Filter.miss_stream ~capacity trace)))
    |> List.map (fun (capacity, cells) ->
           {
             Experiment.label = string_of_int capacity;
             points =
               List.concat_map
                 (fun (_, sweep) -> List.map (fun (l, h) -> (float_of_int l, h)) sweep)
                 cells;
           })
  in
  {
    Experiment.name = profile.Agg_workload.Profile.name;
    x_label = "successor sequence length";
    y_label = "successor entropy (bits)";
    series;
  }

let run (runner : Experiment.Runner.t) =
  let panel_for profile = panel ~runner profile in
  {
    Experiment.id = "fig8";
    title = "Successor entropy of LRU-filtered miss streams, by filter capacity";
    panels = [ panel_for Agg_workload.Profile.write; panel_for Agg_workload.Profile.users ];
  }

