let default_capacities = [ 100; 200; 300; 400; 600; 800 ]

let client_fetches ~trace ~config ~capacity =
  let cache = Agg_core.Client_cache.create ~config ~capacity () in
  float_of_int (Agg_core.Client_cache.run cache trace).Agg_core.Metrics.demand_fetches

let sweep_series ~settings ~trace ~capacities configs =
  Experiment.grid ~settings ~rows:configs ~cols:capacities (fun (_, config) capacity ->
      client_fetches ~trace ~config ~capacity)
  |> List.map (fun ((label, _), points) ->
         {
           Experiment.label;
           points = List.map (fun (capacity, y) -> (float_of_int capacity, y)) points;
         })

let client_panel ~settings ~name ~trace ~capacities configs =
  {
    Experiment.name;
    x_label = "cache capacity (files)";
    y_label = "demand fetches";
    series = sweep_series ~settings ~trace ~capacities configs;
  }

let member_position ?(settings = Experiment.default_settings) ?(capacities = default_capacities)
    profile =
  let trace = Trace_store.get ~settings profile in
  let base = Agg_core.Config.default in
  client_panel ~settings
    ~name:(profile.Agg_workload.Profile.name ^ " (A1 member position)")
    ~trace ~capacities
    [
      ("g5-tail", { base with member_position = Agg_core.Config.Tail });
      ("g5-head", { base with member_position = Agg_core.Config.Head });
      ("lru", Agg_core.Config.with_group_size 1 base);
    ]

let metadata_policy ?(settings = Experiment.default_settings) ?(capacities = default_capacities)
    profile =
  let trace = Trace_store.get ~settings profile in
  let base = Agg_core.Config.default in
  client_panel ~settings
    ~name:(profile.Agg_workload.Profile.name ^ " (A2 metadata policy)")
    ~trace ~capacities
    [
      ("g5-recency", { base with metadata_policy = Agg_successor.Successor_list.Recency });
      ("g5-frequency", { base with metadata_policy = Agg_successor.Successor_list.Frequency });
    ]

let successor_capacity ?(settings = Experiment.default_settings)
    ?(capacities = [ 1; 2; 4; 8; 16 ]) profile =
  let trace = Trace_store.get ~settings profile in
  let cache_capacity = 300 in
  let points =
    Agg_util.Pool.map ~jobs:settings.Experiment.jobs
      (fun successor_capacity ->
        let config = { Agg_core.Config.default with successor_capacity } in
        (float_of_int successor_capacity, client_fetches ~trace ~config ~capacity:cache_capacity))
      capacities
  in
  {
    Experiment.name = profile.Agg_workload.Profile.name ^ " (A3 successor capacity)";
    x_label = "successor-list capacity";
    y_label = "demand fetches (cache = 300)";
    series = [ { Experiment.label = "g5"; points } ];
  }

let baselines ?(settings = Experiment.default_settings) ?(capacities = default_capacities) profile =
  let trace = Trace_store.get ~settings profile in
  let agg =
    sweep_series ~settings ~trace ~capacities
      [
        ("lru", Agg_core.Config.with_group_size 1 Agg_core.Config.default);
        ("agg-g5", Agg_core.Config.default);
      ]
  in
  let prob_graph =
    Experiment.grid ~settings
      ~rows:[ ("probgraph-0.1", 0.1); ("probgraph-0.25", 0.25) ]
      ~cols:capacities
      (fun (_, threshold) capacity ->
        let pg = Agg_baselines.Prob_graph.create ~threshold ~capacity () in
        let m = Agg_baselines.Prob_graph.run pg trace in
        float_of_int m.Agg_core.Metrics.demand_fetches)
    |> List.map (fun ((label, _), points) ->
           {
             Experiment.label;
             points = List.map (fun (capacity, y) -> (float_of_int capacity, y)) points;
           })
  in
  {
    Experiment.name = profile.Agg_workload.Profile.name ^ " (A4 baselines)";
    x_label = "cache capacity (files)";
    y_label = "demand fetches";
    series = agg @ prob_graph;
  }

(* A5, A6 and A11 are Fig. 4 cells: the server hit rate (%) behind a
   client LRU of each filter capacity, one series per
   [(label, scheme, cooperative)] row. *)
let server_panel ~settings ?filter_capacities ~name rows profile =
  Fig4.panel ?filter_capacities ~runner:(Experiment.Runner.create ~settings ())
    ~name:(profile.Agg_workload.Profile.name ^ name)
    rows profile

let cooperative ?(settings = Experiment.default_settings) ?filter_capacities profile =
  let g5 = Agg_system.Scheme.aggregating () in
  server_panel ~settings ?filter_capacities ~name:" (A5 cooperation)"
    [ ("g5-miss-stream", g5, false); ("g5-cooperative", g5, true) ]
    profile

let second_level_policies ?(settings = Experiment.default_settings) ?filter_capacities profile =
  server_panel ~settings ?filter_capacities ~name:" (A6 second-level policies)"
    (("agg-g5", Agg_system.Scheme.aggregating (), false)
    :: List.map
         (fun kind -> (Agg_cache.Cache.kind_name kind, Agg_system.Scheme.Plain kind, false))
         Agg_cache.Cache.[ Lru; Lfu; Mq; Slru; Twoq; Arc ])
    profile

let placement ?(settings = Experiment.default_settings) profile =
  let open Agg_util in
  let trace = Trace_store.get ~settings profile in
  let half = Agg_trace.Trace.length trace / 2 in
  let train = Agg_trace.Trace.sub trace ~pos:0 ~len:half in
  let replay = Agg_trace.Trace.files (Agg_trace.Trace.sub trace ~pos:half ~len:half) in
  let table =
    Table.create
      ~title:(Printf.sprintf "A8 — placement on a linear device (%s)" profile.Agg_workload.Profile.name)
      ~columns:[ "layout"; "slots used"; "mean seek"; "max seek"; "cold allocations" ]
  in
  Pool.map ~jobs:settings.Experiment.jobs
    (fun (name, build) ->
      let disk = build train in
      let stats = Agg_placement.Disk.replay disk replay in
      ( name,
        Agg_placement.Disk.occupied_slots disk,
        stats.Agg_placement.Disk.mean_seek,
        stats.Agg_placement.Disk.max_seek,
        stats.Agg_placement.Disk.allocated_on_the_fly ))
    Agg_placement.Layout.strategies
  |> List.iter (fun (name, slots, mean_seek, max_seek, cold) ->
         Table.add_row table
           [
             name;
             string_of_int slots;
             Printf.sprintf "%.1f" mean_seek;
             string_of_int max_seek;
             string_of_int cold;
           ]);
  table

let sequence_model ?(settings = Experiment.default_settings) ?(lengths = [ 1; 2; 4; 8 ]) () =
  let open Agg_util in
  let table =
    Table.create ~title:"A7 — successor-sequence tracking (Fig. 6 model)"
      ~columns:
        ("workload"
        :: List.concat_map
             (fun l -> [ Printf.sprintf "L=%d full %%" l; Printf.sprintf "L=%d first %%" l ])
             lengths)
  in
  Experiment.grid ~settings ~rows:Agg_workload.Profile.all ~cols:lengths (fun profile length ->
      let files = Trace_store.files ~settings profile in
      let a = Agg_successor.Sequence_tracker.measure ~length files in
      let pct v =
        Printf.sprintf "%.1f" (100.0 *. Stats.ratio v a.Agg_successor.Sequence_tracker.opportunities)
      in
      [
        pct a.Agg_successor.Sequence_tracker.full_matches;
        pct a.Agg_successor.Sequence_tracker.first_matches;
      ])
  |> List.iter (fun (profile, cells) ->
         Table.add_row table
           (profile.Agg_workload.Profile.name :: List.concat_map snd cells));
  table

(* replay a file sequence through an LRU cache that, on each miss,
   fetches the members named by [group_for] as a cold block *)
let static_group_fetches ~capacity ~group_for files =
  let cache = Agg_cache.Cache.create Agg_cache.Cache.Lru ~capacity in
  Array.fold_left
    (fun fetches file ->
      if Agg_cache.Cache.access cache file then fetches
      else begin
        ignore (Agg_cache.Cache.insert_cold_group cache (group_for file));
        fetches + 1
      end)
    0 files

let overlap_vs_partition ?(settings = Experiment.default_settings) ?(group_size = 5) profile =
  let open Agg_util in
  let trace = Trace_store.get ~settings profile in
  let half = Agg_trace.Trace.length trace / 2 in
  let train = Agg_trace.Trace.sub trace ~pos:0 ~len:half in
  let replay_trace = Agg_trace.Trace.sub trace ~pos:half ~len:half in
  let replay = Agg_trace.Trace.files replay_trace in
  let graph = Agg_successor.Graph.of_trace train in
  let capacity = 300 in
  (* overlapping: each file anchors its own group *)
  let overlap_fetches () =
    static_group_fetches ~capacity replay ~group_for:(fun file ->
        match (Agg_successor.Grouping.group_of graph ~size:group_size file).Agg_successor.Grouping.members with
        | _anchor :: members -> members
        | [] -> [])
  in
  (* partition: a file belongs to exactly one group *)
  let partition_fetches () =
    let part =
      Agg_successor.Grouping.membership (Agg_successor.Grouping.partition graph ~size:group_size)
    in
    static_group_fetches ~capacity replay ~group_for:(fun file ->
        match Hashtbl.find_opt part file with
        | Some group -> List.filter (fun m -> m <> file) group.Agg_successor.Grouping.members
        | None -> [])
  in
  let lru_fetches () = static_group_fetches ~capacity replay ~group_for:(fun _ -> []) in
  let dynamic_fetches () =
    let config = Agg_core.Config.with_group_size group_size Agg_core.Config.default in
    let cache = Agg_core.Client_cache.create ~config ~capacity () in
    (Agg_core.Client_cache.run cache replay_trace).Agg_core.Metrics.demand_fetches
  in
  let fetched =
    Pool.map ~jobs:settings.Experiment.jobs
      (fun (name, run) -> (name, run ()))
      [
        ("lru (no groups)", lru_fetches);
        ("static partition (disjoint)", partition_fetches);
        ("static overlapping groups", overlap_fetches);
        ("dynamic aggregating cache", dynamic_fetches);
      ]
  in
  let lru = match fetched with (_, lru) :: _ -> lru | [] -> 0 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "A10 — overlap vs partition (%s, g=%d, cache=%d)"
           profile.Agg_workload.Profile.name group_size capacity)
      ~columns:[ "scheme"; "demand fetches"; "vs LRU %" ]
  in
  List.iter
    (fun (name, fetches) ->
      Table.add_row table
        [
          name;
          string_of_int fetches;
          Printf.sprintf "%.1f" (100.0 *. float_of_int (lru - fetches) /. float_of_int lru);
        ])
    fetched;
  table

(* A11 — the Fig. 4 experiment swept over group sizes (the paper fixes
   g = 5 server-side): server hit rate vs filter capacity, one series per
   group size. Shows where the server-side saturation point sits. *)
let server_group_size ~settings profile =
  let schemes =
    Agg_system.Scheme.plain_lru
    :: List.map (fun g -> Agg_system.Scheme.aggregating ~group_size:g ()) [ 2; 3; 5; 7; 10 ]
  in
  server_panel ~settings ~filter_capacities:[ 100; 200; 300; 400; 500 ]
    ~name:" (A11 server group size)"
    (List.map (fun scheme -> (Agg_system.Scheme.name scheme, scheme, false)) schemes)
    profile

let adaptive_group ?(settings = Experiment.default_settings) () =
  let open Agg_util in
  let table =
    Table.create ~title:"A9 — adaptive group sizing (fetches / speculation issued)"
      ~columns:[ "workload"; "lru"; "g5"; "g10"; "adaptive"; "final g" ]
  in
  let show (m : Agg_core.Metrics.client) =
    Printf.sprintf "%d / %d" m.Agg_core.Metrics.demand_fetches
      m.Agg_core.Metrics.prefetch.Agg_core.Metrics.issued
  in
  Experiment.grid ~settings ~rows:Agg_workload.Profile.all
    ~cols:[ `Fixed 1; `Fixed 5; `Fixed 10; `Adaptive ]
    (fun profile variant ->
      let trace = Trace_store.get ~settings profile in
      match variant with
      | `Fixed g ->
          let config = Agg_core.Config.with_group_size g Agg_core.Config.default in
          let cache = Agg_core.Client_cache.create ~config ~capacity:300 () in
          (show (Agg_core.Client_cache.run cache trace), "")
      | `Adaptive ->
          let adaptive = Agg_core.Adaptive_client.create ~capacity:300 () in
          let metrics = Agg_core.Adaptive_client.run adaptive trace in
          (show metrics, string_of_int (Agg_core.Adaptive_client.current_group_size adaptive)))
  |> List.iter (fun (profile, cells) ->
         let shown = List.map (fun (_, (s, _)) -> s) cells in
         let final_g =
           List.fold_left (fun acc (_, (_, g)) -> if g = "" then acc else g) "" cells
         in
         Table.add_row table ((profile.Agg_workload.Profile.name :: shown) @ [ final_g ]));
  table

let predictor_accuracy ?(settings = Experiment.default_settings) () =
  let open Agg_util in
  let table =
    Table.create ~title:"Next-access predictor accuracy (recency vs frequency vs context)"
      ~columns:[ "workload"; "last-successor %"; "markov (frequency) %"; "ppm order-2 %" ]
  in
  Experiment.grid ~settings ~rows:Agg_workload.Profile.all ~cols:[ `Last; `Markov; `Ppm ]
    (fun profile predictor ->
      let files = Trace_store.files ~settings profile in
      let a =
        match predictor with
        | `Last -> Agg_baselines.Last_successor.measure files
        | `Markov -> Agg_baselines.Markov_predictor.measure files
        | `Ppm -> Agg_baselines.Ppm.measure files
      in
      Printf.sprintf "%.1f" (100.0 *. Agg_baselines.Last_successor.accuracy_rate a))
  |> List.iter (fun (profile, cells) ->
         Table.add_row table (profile.Agg_workload.Profile.name :: List.map snd cells));
  table

let all ~settings =
  let server = Agg_workload.Profile.server in
  let panel p = [ Experiment.panel_table ~figure_id:"ablation" p ] in
  [
    ( "Ablation A1 — group-member insertion position (paper: 'little effect')",
      fun () -> panel (member_position ~settings server) );
    ( "Ablation A2 — metadata policy: recency vs frequency, end to end",
      fun () -> panel (metadata_policy ~settings server) );
    ( "Ablation A3 — successor-list capacity (metadata budget)",
      fun () -> panel (successor_capacity ~settings server) );
    ( "Ablation A4 — aggregating cache vs probability-graph prefetching",
      fun () -> panel (baselines ~settings server) );
    ( "Ablation A5 — server metadata: miss stream vs cooperative clients",
      fun () -> panel (cooperative ~settings server) );
    ( "Ablation A6 — grouping vs second-level replacement (MQ / SLRU / 2Q / ARC)",
      fun () -> panel (second_level_policies ~settings server) );
    ( "Ablation A7 — successor-sequence tracking (the Fig. 6 model)",
      fun () -> [ sequence_model ~settings () ] );
    ( "Ablation A8 — grouping for data placement (linear device seeks)",
      fun () -> [ placement ~settings server ] );
    ("Ablation A9 — adaptive group sizing", fun () -> [ adaptive_group ~settings () ]);
    ( "Ablation A10 — overlapping groups vs disjoint partition (§2.1)",
      fun () ->
        [
          overlap_vs_partition ~settings server;
          overlap_vs_partition ~settings Agg_workload.Profile.workstation;
        ] );
    ( "Ablation A11 — server-side group-size sweep",
      fun () -> panel (server_group_size ~settings server) );
    ( "Predictor accuracy — recency vs frequency vs context",
      fun () -> [ predictor_accuracy ~settings () ] );
  ]
