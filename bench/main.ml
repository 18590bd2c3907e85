(* The benchmark harness: regenerates the data series behind every figure
   of the paper's evaluation (Figs. 3, 4, 5, 7, 8), the headline summary
   numbers, the design-choice ablations, the automated paper-vs-measured
   checks, and a set of Bechamel micro-benchmarks of the core operations.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe fig3 fig4       # a subset
     dune exec bench/main.exe micro           # only the micro-benchmarks
     dune exec bench/main.exe all --quick     # reduced event counts
     dune exec bench/main.exe -- --jobs 4     # evaluate sweeps on 4 domains
     dune exec bench/main.exe -- --sweep      # time --jobs 1 vs --jobs N
     dune exec bench/main.exe -- --obs        # also write BENCH_obs.json
     dune exec bench/main.exe -- --weighted   # weighted-caching sweep
                                              # and write BENCH_weighted.json
     dune exec bench/main.exe -- --faults     # also run the resilience sweep
                                              # and write BENCH_faults.json
     dune exec bench/main.exe -- --cluster    # also run the sharded-cluster
                                              # sweep and write BENCH_cluster.json
     dune exec bench/main.exe -- --scenarios  # also run the scenario corpus
                                              # and write BENCH_scenarios.json

   Output on stdout is deterministic (fixed seeds) apart from the
   micro-benchmark timings, and identical for every --jobs value. Every
   run also records wall-clock per section in BENCH_sweep.json; --sweep
   additionally measures the speedup of --jobs N over --jobs 1; --obs
   additionally profiles every section and fig3/4/5 sweep cell as spans
   and writes them as Chrome trace_event JSON to BENCH_obs.json (open in
   chrome://tracing or Perfetto). *)

let settings ~quick ~jobs =
  let base =
    if quick then Agg_sim.Experiment.quick_settings else Agg_sim.Experiment.default_settings
  in
  { base with Agg_sim.Experiment.jobs }

let section title = Printf.printf "\n================ %s ================\n%!" title

(* Set by --quick: the micro section shrinks its Bechamel quota and
   throughput repetitions instead of its event counts. *)
let quick_flag = ref false

(* All timing goes through the Obs.Span monotonic clock — ci.sh greps for
   direct clock calls outside lib/obs. *)
let timed f =
  let t0 = Agg_obs.Span.now_ns () in
  f ();
  Agg_obs.Span.seconds_since t0

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Set by --obs: fig3/4/5 then time each sweep cell, and every section
   becomes a span, all exported to BENCH_obs.json. *)
let profiler : Agg_obs.Span.recorder option ref = ref None

(* the runner every figure section shares: one scope holding the --obs
   profiler (if any), [None] otherwise *)
let runner ~settings =
  let scope = Option.map (fun profiler -> Agg_obs.Scope.create ~profiler ()) !profiler in
  Agg_sim.Experiment.Runner.create ?scope ~settings ()

(* --- figure sections -------------------------------------------------- *)

let run_workloads ~settings =
  section "Workload characterisation (the §4.1 view of the four traces)";
  let table =
    Agg_util.Table.create ~title:"synthetic stand-ins for mozart / ives / dvorak / barber"
      ~columns:
        [
          "workload"; "events"; "files"; "clients"; "write %"; "repeat %"; "H(L=1) bits";
          "H per-client"; "last-succ acc %";
        ]
  in
  Agg_util.Pool.map ~jobs:settings.Agg_sim.Experiment.jobs
    (fun profile ->
      let trace = Agg_sim.Trace_store.get ~settings profile in
      let stats = Agg_trace.Trace_stats.compute trace in
      let accuracy =
        Agg_baselines.Last_successor.measure (Agg_sim.Trace_store.files ~settings profile)
        |> Agg_baselines.Last_successor.accuracy_rate
      in
      [
        profile.Agg_workload.Profile.name;
        string_of_int stats.Agg_trace.Trace_stats.events;
        string_of_int stats.Agg_trace.Trace_stats.distinct_files;
        string_of_int stats.Agg_trace.Trace_stats.clients;
        Printf.sprintf "%.1f" (100.0 *. stats.Agg_trace.Trace_stats.write_fraction);
        Printf.sprintf "%.1f" (100.0 *. stats.Agg_trace.Trace_stats.repeat_fraction);
        Printf.sprintf "%.2f" (Agg_entropy.Entropy.of_trace trace);
        Printf.sprintf "%.2f" (Agg_entropy.Entropy.per_client trace);
        Printf.sprintf "%.1f" (100.0 *. accuracy);
      ])
    Agg_workload.Profile.all
  |> List.iter (Agg_util.Table.add_row table);
  Agg_util.Table.print table

let run_fig3 ~settings =
  section "Fig. 3 — client demand fetches vs cache capacity (per group size)";
  Agg_sim.Experiment.print_figure (Agg_sim.Fig3.run (runner ~settings))

let run_fig4 ~settings =
  section "Fig. 4 — server hit rate behind an intervening client cache";
  Agg_sim.Experiment.print_figure (Agg_sim.Fig4.run (runner ~settings))

let run_fig5 ~settings =
  section "Fig. 5 — successor-list replacement quality (oracle / LRU / LFU)";
  Agg_sim.Experiment.print_figure (Agg_sim.Fig5.run (runner ~settings))

let run_fig7 ~settings =
  section "Fig. 7 — successor entropy vs successor sequence length";
  Agg_sim.Experiment.print_figure (Agg_sim.Fig7.run (runner ~settings))

let run_fig8 ~settings =
  section "Fig. 8 — successor entropy of LRU-filtered miss streams";
  Agg_sim.Experiment.print_figure (Agg_sim.Fig8.run (runner ~settings))

let run_summary ~settings =
  section "Headline summary (abstract / conclusions numbers)";
  Agg_util.Table.print (Agg_sim.Summary.client_table (Agg_sim.Summary.client_rows ~settings ()));
  Agg_util.Table.print (Agg_sim.Summary.server_table (Agg_sim.Summary.server_rows ~settings ()))

let run_checks ~settings =
  section "Paper-vs-measured checks";
  let checks = Agg_sim.Report.run_all ~settings () in
  Agg_util.Table.print (Agg_sim.Report.table checks);
  Printf.printf "%s\n"
    (if Agg_sim.Report.all_pass checks then "ALL CHECKS PASS" else "SOME CHECKS FAILED")

let print_panel panel =
  Agg_util.Table.print (Agg_sim.Experiment.panel_table ~figure_id:"ablation" panel)

let run_ablations ~settings =
  section "Ablation A1 — group-member insertion position (paper: 'little effect')";
  print_panel (Agg_sim.Ablations.member_position ~settings Agg_workload.Profile.server);
  section "Ablation A2 — metadata policy: recency vs frequency, end to end";
  print_panel (Agg_sim.Ablations.metadata_policy ~settings Agg_workload.Profile.server);
  section "Ablation A3 — successor-list capacity (metadata budget)";
  print_panel (Agg_sim.Ablations.successor_capacity ~settings Agg_workload.Profile.server);
  section "Ablation A4 — aggregating cache vs probability-graph prefetching";
  print_panel (Agg_sim.Ablations.baselines ~settings Agg_workload.Profile.server);
  section "Ablation A5 — server metadata: miss stream vs cooperative clients";
  print_panel (Agg_sim.Ablations.cooperative ~settings Agg_workload.Profile.server);
  section "Ablation A6 — grouping vs second-level replacement (MQ / SLRU / 2Q / ARC)";
  print_panel (Agg_sim.Ablations.second_level_policies ~settings Agg_workload.Profile.server);
  section "Ablation A7 — successor-sequence tracking (the Fig. 6 model)";
  Agg_util.Table.print (Agg_sim.Ablations.sequence_model ~settings ());
  section "Ablation A8 — grouping for data placement (linear device seeks)";
  Agg_util.Table.print (Agg_sim.Ablations.placement ~settings Agg_workload.Profile.server);
  section "Ablation A9 — adaptive group sizing";
  Agg_util.Table.print (Agg_sim.Ablations.adaptive_group ~settings ());
  section "Ablation A10 — overlapping groups vs disjoint partition (§2.1)";
  Agg_util.Table.print (Agg_sim.Ablations.overlap_vs_partition ~settings Agg_workload.Profile.server);
  Agg_util.Table.print
    (Agg_sim.Ablations.overlap_vs_partition ~settings Agg_workload.Profile.workstation);
  section "Ablation A11 — server-side group-size sweep";
  print_panel (Agg_sim.Ablations.server_group_size ~settings Agg_workload.Profile.server);
  section "Predictor accuracy — recency vs frequency vs context";
  Agg_util.Table.print (Agg_sim.Ablations.predictor_accuracy ~settings ())

let run_latency ~settings =
  section "End-to-end latency (Fig. 2 path: client / network / server / disk)";
  let trace = Agg_sim.Trace_store.get ~settings Agg_workload.Profile.server in
  let costs = [ ("LAN", Agg_system.Cost_model.lan); ("WAN", Agg_system.Cost_model.wan) ] in
  let deployments = [ `Baseline; `Aggregating_client; `Aggregating_both ] in
  Agg_sim.Experiment.grid ~settings ~rows:costs ~cols:deployments
    (fun (_, cost) deployment ->
      let config =
        Agg_system.Path.with_deployment deployment
          { Agg_system.Path.default_config with cost }
      in
      let r = Agg_system.Path.run config trace in
      [
        Agg_system.Path.deployment_name deployment;
        Printf.sprintf "%.3f" r.Agg_system.Path.mean_latency;
        Printf.sprintf "%.3f" r.Agg_system.Path.p95_latency;
        string_of_int r.Agg_system.Path.round_trips;
        string_of_int r.Agg_system.Path.files_transferred;
        string_of_int r.Agg_system.Path.disk_reads;
        Printf.sprintf "%.1f"
          (100.0 *. float_of_int r.Agg_system.Path.client_hits
          /. float_of_int r.Agg_system.Path.accesses);
      ])
  |> List.iter (fun ((cost_name, _), rows) ->
         let table =
           Agg_util.Table.create
             ~title:(Printf.sprintf "server workload, %s costs" cost_name)
             ~columns:
               [ "deployment"; "mean ms"; "p95 ms"; "rtts"; "files sent"; "disk reads"; "client hit %" ]
         in
         List.iter (fun (_, row) -> Agg_util.Table.add_row table row) rows;
         Agg_util.Table.print table)

let run_fleet ~settings =
  section "Fleet — many clients, one server, write invalidation (users workload)";
  let trace = Agg_sim.Trace_store.get ~settings Agg_workload.Profile.users in
  let table =
    Agg_util.Table.create ~title:"fleet size sweep (client caches 150 files, server 300)"
      ~columns:
        [ "clients"; "scheme"; "client hit %"; "server hit %"; "store fetches"; "invalidations" ]
  in
  let schemes =
    [
      ("plain", Agg_system.Scheme.plain_lru, Agg_system.Scheme.plain_lru);
      ( "aggregating",
        Agg_system.Scheme.Aggregating Agg_core.Config.default,
        Agg_system.Scheme.Aggregating Agg_core.Config.default );
    ]
  in
  Agg_sim.Experiment.grid ~settings ~rows:[ 1; 2; 4; 8; 16 ] ~cols:schemes
    (fun clients (name, client_scheme, server_scheme) ->
      let config =
        { Agg_system.Fleet.default_config with clients; client_scheme; server_scheme }
      in
      let r = Agg_system.Fleet.run config trace in
      [
        string_of_int clients;
        name;
        Printf.sprintf "%.1f" (100.0 *. Agg_system.Fleet.client_hit_rate r);
        Printf.sprintf "%.1f" (100.0 *. Agg_system.Fleet.server_hit_rate r);
        string_of_int r.Agg_system.Fleet.store_fetches;
        string_of_int r.Agg_system.Fleet.invalidations;
      ])
  |> List.iter (fun (_, rows) ->
         List.iter (fun (_, row) -> Agg_util.Table.add_row table row) rows);
  Agg_util.Table.print table

let faults_json_path = "BENCH_faults.json"

let run_faults ~settings =
  section "Resilience — hit rate & latency vs message loss (lru vs g5)";
  let runner = Agg_sim.Experiment.Runner.create ~settings () in
  let points = Agg_sim.Resilience.sweep runner in
  Agg_sim.Experiment.print_figure (Agg_sim.Resilience.run runner);
  (match Agg_sim.Resilience.hit_rate_advantage ~loss_rate:0.1 points with
  | Some d -> Printf.printf "g5 hit-rate advantage over lru at 10%% loss: %+.2f pts\n" d
  | None -> ());
  let oc = open_out faults_json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Agg_sim.Resilience.json_of_points points));
  Printf.printf "wrote %d sweep points to %s\n" (List.length points) faults_json_path

let cluster_json_path = "BENCH_cluster.json"

let run_cluster ~settings =
  section "Cluster — sharded ring under node loss (scheme x replicas x metadata placement)";
  let runner = Agg_sim.Experiment.Runner.create ~settings () in
  let points = Agg_sim.Cluster.sweep runner in
  Agg_sim.Experiment.print_figure (Agg_sim.Cluster.run runner);
  let fleet_match = Agg_sim.Cluster.fleet_equivalent runner in
  Printf.printf "degenerate N=1,k=1 cluster matches Fleet byte-for-byte: %b\n" fleet_match;
  (match Agg_sim.Cluster.degraded_reduction points with
  | Some (k_min, k_max) ->
      Printf.printf "degraded fetches at max node loss (g5, replicated metadata): k_min=%d k_max=%d\n"
        k_min k_max
  | None -> ());
  let oc = open_out cluster_json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Agg_sim.Cluster.json_of_points ~fleet_match points));
  Printf.printf "wrote %d sweep points to %s\n" (List.length points) cluster_json_path

let scenarios_json_path = "BENCH_scenarios.json"

let run_scenarios ~settings =
  section "Scenarios — declarative corpus with invariant checking (scenarios/*.scn)";
  let runner = Agg_sim.Experiment.Runner.create ~settings () in
  let events_cap = if !quick_flag then Some 4_000 else None in
  let entries = Agg_sim.Scenarios.run_corpus ?events_cap ~runner "scenarios" in
  print_string (Agg_sim.Scenarios.render entries);
  Printf.printf "corpus verdict: %s\n"
    (if Agg_sim.Scenarios.all_ok entries then "all ok" else "FAILURES");
  let oc = open_out scenarios_json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Agg_sim.Scenarios.json_of_entries entries));
  Printf.printf "wrote %d scenario results to %s\n" (List.length entries) scenarios_json_path

let weighted_json_path = "BENCH_weighted.json"

let run_weighted ~settings =
  section "Weighted caching — size/cost-aware policies on the sized profiles";
  let runner = Agg_sim.Experiment.Runner.create ~settings () in
  let cells = Agg_sim.Weighted.sweep runner in
  Agg_sim.Experiment.print_figure (Agg_sim.Weighted.run runner);
  let verdicts = Agg_sim.Weighted.verdicts runner in
  List.iter
    (fun (v : Agg_sim.Weighted.verdict) ->
      Printf.printf "%s: g5 total retrieval cost %d vs landlord %d — g5 %s\n"
        v.Agg_sim.Weighted.v_profile v.Agg_sim.Weighted.g5_cost v.Agg_sim.Weighted.landlord_cost
        (if v.Agg_sim.Weighted.g5_wins then "wins" else "loses"))
    verdicts;
  let oc = open_out weighted_json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"cells\": [\n";
      List.iteri
        (fun i (c : Agg_sim.Weighted.cell) ->
          Printf.fprintf oc
            "    {\"profile\": \"%s\", \"policy\": \"%s\", \"capacity\": %d, \
             \"byte_hit_rate\": %.6f, \"cost_saved_rate\": %.6f, \"total_retrieval_cost\": \
             %d}%s\n"
            (json_escape c.Agg_sim.Weighted.profile)
            (json_escape c.Agg_sim.Weighted.policy)
            c.Agg_sim.Weighted.capacity c.Agg_sim.Weighted.byte_hit_rate
            c.Agg_sim.Weighted.cost_saved_rate c.Agg_sim.Weighted.total_cost
            (if i = List.length cells - 1 then "" else ","))
        cells;
      Printf.fprintf oc "  ],\n  \"verdict\": [\n";
      List.iteri
        (fun i (v : Agg_sim.Weighted.verdict) ->
          Printf.fprintf oc
            "    {\"profile\": \"%s\", \"capacity\": %d, \"g5_total_cost\": %d, \
             \"landlord_total_cost\": %d, \"g5_beats_landlord\": %b}%s\n"
            (json_escape v.Agg_sim.Weighted.v_profile)
            v.Agg_sim.Weighted.v_capacity v.Agg_sim.Weighted.g5_cost
            v.Agg_sim.Weighted.landlord_cost v.Agg_sim.Weighted.g5_wins
            (if i = List.length verdicts - 1 then "" else ","))
        verdicts;
      Printf.fprintf oc "  ]\n}\n");
  Printf.printf "wrote %d sweep cells to %s\n" (List.length cells) weighted_json_path

let telemetry_json_path = "BENCH_telemetry.json"

(* Two windowed-series measurements the end-of-run aggregates cannot
   express:

   - {e crash recovery} — with a client-crash plan wiping the cache
     mid-run, how many windows does each scheme need to climb back to
     90% of its own steady-state hit rate? Grouping refills a lost
     working set a whole retrieval group at a time, so g5 should recover
     in no more windows than lru.
   - {e ring-churn load skew} — peak per-window load imbalance across a
     5-node ring while a node leaves and rejoins, versus the pre-churn
     baseline. *)
let run_telemetry ~settings =
  section "Telemetry — windowed series: crash recovery (lru vs g5) and ring-churn load skew";
  let events = settings.Agg_sim.Experiment.events in
  let window = max 250 (events / 40) in
  let trace = Agg_sim.Trace_store.get ~settings Agg_workload.Profile.server in
  let faults =
    {
      Agg_faults.Plan.none with
      Agg_faults.Plan.crash_rate = 4.0 /. float_of_int events;
      seed = 11;
    }
  in
  let recover scheme =
    let series = Agg_obs.Series.create ~window in
    let config =
      {
        Agg_system.Path.default_config with
        Agg_system.Path.client = scheme;
        server = scheme;
        faults;
        scope = Some (Agg_obs.Scope.create ~series ());
      }
    in
    ignore (Agg_system.Path.run config trace);
    let n = Agg_obs.Series.windows series in
    let hit w = Agg_obs.Series.hit_rate series w in
    let steady =
      let lo = 3 * n / 4 in
      let sum = ref 0.0 in
      for w = lo to n - 1 do
        sum := !sum +. hit w
      done;
      !sum /. float_of_int (max 1 (n - lo))
    in
    (* deepest dip after the cold-start ramp, then windows back to 90%
       of steady state (n - 1 - dip when the run ends still degraded) *)
    let warm = max 1 (n / 5) in
    let dip = ref warm in
    for w = warm to n - 1 do
      if hit w < hit !dip then dip := w
    done;
    let recovered = ref (n - 1) in
    (try
       for w = !dip to n - 1 do
         if hit w >= 0.9 *. steady then begin
           recovered := w;
           raise Exit
         end
       done
     with Exit -> ());
    (steady, hit !dip, !dip, !recovered - !dip)
  in
  let lru_steady, lru_dip_rate, lru_dip, lru_rec = recover Agg_system.Scheme.plain_lru in
  let g5_steady, g5_dip_rate, g5_dip, g5_rec = recover (Agg_system.Scheme.aggregating ()) in
  Printf.printf
    "crash recovery (window %d accesses): lru steady %.1f%% dip %.1f%% @w%d, back in %d windows\n"
    window lru_steady lru_dip_rate lru_dip lru_rec;
  Printf.printf
    "                                     g5  steady %.1f%% dip %.1f%% @w%d, back in %d windows\n"
    g5_steady g5_dip_rate g5_dip g5_rec;
  Printf.printf "g5 recovers %s lru after cache loss\n"
    (if g5_rec < lru_rec then "faster than"
     else if g5_rec = lru_rec then "as fast as"
     else "SLOWER than");
  let churn =
    [ (events / 3, Agg_cluster.Cluster.Leave 4); (2 * events / 3, Agg_cluster.Cluster.Join 4) ]
  in
  let series = Agg_obs.Series.create ~window in
  let config =
    {
      Agg_cluster.Cluster.default_config with
      Agg_cluster.Cluster.nodes = 5;
      replicas = 2;
      client_scheme = Agg_system.Scheme.aggregating ();
      node_scheme = Agg_system.Scheme.aggregating ();
      churn;
      scope = Some (Agg_obs.Scope.create ~series ());
    }
  in
  let r = Agg_cluster.Cluster.run config trace in
  let n = Agg_obs.Series.windows series in
  let imb w = Agg_obs.Series.load_imbalance series w in
  let baseline =
    let upto = max 1 (events / 3 / window) in
    let sum = ref 0.0 in
    for w = 0 to min (n - 1) (upto - 1) do
      sum := !sum +. imb w
    done;
    !sum /. float_of_int (min n upto)
  in
  let peak = ref 0.0 in
  let peak_w = ref 0 in
  for w = 0 to n - 1 do
    if imb w > !peak then begin
      peak := imb w;
      peak_w := w
    end
  done;
  Printf.printf
    "ring churn (5 nodes, k=2, leave+rejoin): baseline imbalance %.2f, peak %.2f @w%d, %d \
     rebalances moved %d files\n"
    baseline !peak !peak_w r.Agg_cluster.Cluster.rebalances r.Agg_cluster.Cluster.moved_files;
  let oc = open_out telemetry_json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
        \  \"window\": %d,\n\
        \  \"recovery\": {\n\
        \    \"lru\": {\"steady_hit_rate\": %.4f, \"dip_hit_rate\": %.4f, \"dip_window\": %d, \
         \"recovery_windows\": %d},\n\
        \    \"g5\": {\"steady_hit_rate\": %.4f, \"dip_hit_rate\": %.4f, \"dip_window\": %d, \
         \"recovery_windows\": %d}\n\
        \  },\n\
        \  \"churn_skew\": {\"nodes\": 5, \"replicas\": 2, \"baseline_imbalance\": %.4f, \
         \"peak_imbalance\": %.4f, \"peak_window\": %d, \"rebalances\": %d, \"moved_files\": %d}\n\
         }\n"
        window lru_steady lru_dip_rate lru_dip lru_rec g5_steady g5_dip_rate g5_dip g5_rec
        baseline !peak !peak_w r.Agg_cluster.Cluster.rebalances r.Agg_cluster.Cluster.moved_files);
  Printf.printf "wrote telemetry report to %s\n" telemetry_json_path

(* --- scale: one fig3-shaped point at 10^5 clients ------------------------- *)

(* The profile lives here, not in Profile.all: the calibrated
   paper-vs-measured checks only cover the four paper workloads, and a
   100k-client population has no paper counterpart. Shape follows the
   `users` profile with shorter tasks so the private-file namespace stays
   bounded (~10^6 ids, within the flat trackers' dense-id assumption). *)
let scale_profile =
  {
    Agg_workload.Profile.users with
    Agg_workload.Profile.name = "scale-100k";
    clients = 100_000;
    tasks = 100_000;
    task_len_min = 4;
    task_len_max = 10;
    shared_pool = 2_000;
    background_files = 50_000;
  }

let run_scale ~settings:_ =
  section "Scale — fig3-shaped cell at 100,000 clients (group size 5, capacity 300)";
  let events = if !quick_flag then 100_000 else 400_000 in
  let files = Agg_workload.Generator.generate_files ~seed:42 ~events scale_profile in
  let distinct =
    let max_id = Array.fold_left max 0 files in
    let seen = Bytes.make (max_id + 1) '\000' in
    Array.iter (fun f -> Bytes.set seen f '\001') files;
    let n = ref 0 in
    Bytes.iter (fun c -> if c = '\001' then incr n) seen;
    !n
  in
  let run ~group_size =
    let cache =
      Agg_core.Client_cache.create
        ~config:(Agg_core.Config.with_group_size group_size Agg_core.Config.default)
        ~capacity:300 ()
    in
    Agg_core.Client_cache.run_files cache files
  in
  let baseline = run ~group_size:1 in
  let grouped = run ~group_size:5 in
  let table =
    Agg_util.Table.create
      ~title:
        (Printf.sprintf "scale-100k: %d clients, %d events, %d distinct files"
           scale_profile.Agg_workload.Profile.clients events distinct)
      ~columns:[ "scheme"; "hit %"; "demand fetches"; "prefetches used" ]
  in
  List.iter
    (fun (name, (m : Agg_core.Metrics.client)) ->
      Agg_util.Table.add_row table
        [
          name;
          Printf.sprintf "%.2f" (100.0 *. Agg_core.Metrics.client_hit_rate m);
          string_of_int m.Agg_core.Metrics.demand_fetches;
          string_of_int m.Agg_core.Metrics.prefetch.Agg_core.Metrics.used;
        ])
    [ ("lru (g=1)", baseline); ("aggregating g5", grouped) ];
  Agg_util.Table.print table;
  Printf.printf "demand-fetch reduction at 100k clients: %.1f%%\n"
    (100.0
    *. (1.0
       -. (float_of_int grouped.Agg_core.Metrics.demand_fetches
          /. float_of_int (max 1 baseline.Agg_core.Metrics.demand_fetches))))

(* --- Bechamel micro-benchmarks ------------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let files =
    Agg_workload.Generator.generate_files ~seed:7 ~events:20_000 Agg_workload.Profile.server
  in
  let n = Array.length files in
  (* Each staged closure carries its own cursor through the trace so the
     measured operation is one access. *)
  let cache_access kind =
    let cache = Agg_cache.Cache.create kind ~capacity:500 in
    let i = ref 0 in
    Staged.stage (fun () ->
        ignore (Agg_cache.Cache.access cache files.(!i));
        i := (!i + 1) mod n)
  in
  let tracker_observe =
    let tracker = Agg_successor.Tracker.create () in
    let i = ref 0 in
    Staged.stage (fun () ->
        Agg_successor.Tracker.observe tracker files.(!i);
        i := (!i + 1) mod n)
  in
  let group_build =
    let tracker = Agg_successor.Tracker.create () in
    Array.iter (Agg_successor.Tracker.observe tracker) files;
    let i = ref 0 in
    Staged.stage (fun () ->
        ignore (Agg_core.Group_builder.build tracker ~group_size:5 files.(!i));
        i := (!i + 1) mod n)
  in
  let agg_client_access =
    let client = Agg_core.Client_cache.create ~capacity:500 () in
    let i = ref 0 in
    Staged.stage (fun () ->
        ignore (Agg_core.Client_cache.access client files.(!i));
        i := (!i + 1) mod n)
  in
  [
    Test.make ~name:"lru-access" (cache_access Agg_cache.Cache.Lru);
    Test.make ~name:"lfu-access" (cache_access Agg_cache.Cache.Lfu);
    Test.make ~name:"clock-access" (cache_access Agg_cache.Cache.Clock);
    Test.make ~name:"tracker-observe" tracker_observe;
    Test.make ~name:"group-build-g5" group_build;
    Test.make ~name:"agg-client-access" agg_client_access;
    Test.make ~name:"entropy-20k-events"
      (Staged.stage (fun () -> ignore (Agg_entropy.Entropy.of_files files)));
    Test.make ~name:"generate-5k-events"
      (Staged.stage (fun () ->
           ignore
             (Agg_workload.Generator.generate_files ~seed:1 ~events:5_000
                Agg_workload.Profile.server)));
  ]

let micro_json_path = "BENCH_micro.json"

(* Per-policy op throughput: the same 20k-event server stream driven
   through every online policy facade. Wall-clock, so the numbers vary
   run to run; structure and op counts are deterministic. *)
let policy_throughput ~reps files =
  List.map
    (fun kind ->
      let cache = Agg_cache.Cache.create kind ~capacity:500 in
      let ops = reps * Array.length files in
      let seconds =
        timed (fun () ->
            for _ = 1 to reps do
              Array.iter (fun f -> ignore (Agg_cache.Cache.access cache f)) files
            done)
      in
      (Agg_cache.Cache.kind_name kind, ops, seconds))
    Agg_cache.Cache.all_kinds

(* The same throughput at sized-workstation weights (capacity 1000): the
   ten facades, where weighted inserts evict by repeated [evict] calls,
   then the rent-based baselines — Landlord per file, and Bundle served
   as predicted groups the way the weighted sweep serves it. The groups
   are built once, outside the timing: the tracker observes every access
   whatever the cache holds, so the group of access [i] is fixed by the
   stream. *)
let weighted_stream = "sized-workstation seed=7 events=20000 capacity=1000"

let weighted_throughput ~reps =
  let profile = Agg_workload.Profile.sized_workstation in
  let files = Agg_workload.Generator.generate_files ~seed:7 ~events:20_000 profile in
  let capacity = 1_000 in
  let table = Array.make (1 + Array.fold_left max 0 files) Agg_cache.Policy.unit_weight in
  Array.iter (fun f -> table.(f) <- Agg_workload.Profile.weight_of profile f) files;
  let weight_of f = table.(f) in
  let ops = reps * Array.length files in
  let time_facade name cache =
    let seconds =
      timed (fun () ->
          for _ = 1 to reps do
            Array.iter (fun f -> ignore (Agg_cache.Cache.access cache f)) files
          done)
    in
    (name, ops, seconds)
  in
  let groups =
    let c = Agg_core.Config.default in
    let tracker =
      Agg_successor.Tracker.create ~capacity:c.Agg_core.Config.successor_capacity
        ~policy:c.Agg_core.Config.metadata_policy ()
    in
    Array.map
      (fun f ->
        Agg_successor.Tracker.observe tracker f;
        Agg_core.Group_builder.build tracker ~group_size:5 f)
      files
  in
  let bundle =
    let module B = Agg_baselines.Bundle in
    let b = B.create ~capacity in
    let seconds =
      timed (fun () ->
          for _ = 1 to reps do
            Array.iteri
              (fun i f ->
                if B.mem b f then begin
                  B.promote b f;
                  B.charge b f ~cost:(weight_of f).Agg_cache.Policy.cost
                end
                else ignore (B.request_bundle b ~weight_of groups.(i)))
              files
          done)
    in
    ("bundle", ops, seconds)
  in
  List.map
    (fun kind ->
      time_facade (Agg_cache.Cache.kind_name kind)
        (Agg_cache.Cache.create ~weight_of kind ~capacity))
    Agg_cache.Cache.all_kinds
  @ [
      time_facade "landlord"
        (Agg_cache.Cache.of_policy ~weight_of
           (module Agg_baselines.Landlord)
           (Agg_baselines.Landlord.create ~capacity));
      bundle;
    ]

let write_micro_json ~unit ~weighted =
  let oc = open_out micro_json_path in
  let rows rows =
    List.iteri
      (fun i (name, ops, seconds) ->
        let ns_per_op = if ops = 0 then 0.0 else seconds *. 1e9 /. float_of_int ops in
        let mops = if seconds > 0.0 then float_of_int ops /. seconds /. 1e6 else 0.0 in
        Printf.fprintf oc
          "    {\"policy\": \"%s\", \"ops\": %d, \"seconds\": %.4f, \"ns_per_op\": %.1f, \
           \"mops_per_sec\": %.2f}%s\n"
          (json_escape name) ops seconds ns_per_op mops
          (if i = List.length rows - 1 then "" else ","))
      rows
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"stream\": \"server seed=7 events=20000 capacity=500\",\n";
      Printf.fprintf oc "  \"policies\": [\n";
      rows unit;
      Printf.fprintf oc "  ],\n  \"weighted_stream\": \"%s\",\n" weighted_stream;
      Printf.fprintf oc "  \"weighted\": [\n";
      rows weighted;
      Printf.fprintf oc "  ]\n}\n")

let run_micro () =
  section "Micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let quota = if !quick_flag then Time.second 0.1 else Time.second 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:None () in
  let grouped = Test.make_grouped ~name:"aggcache" (micro_tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table =
    Agg_util.Table.create ~title:"core operation costs"
      ~columns:[ "operation"; "time/op"; "r²" ]
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with Some (t :: _) -> t | Some [] | None -> Float.nan
      in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols) in
      let time =
        if Float.is_nan estimate then "n/a"
        else if estimate > 1_000_000.0 then Printf.sprintf "%.2f ms" (estimate /. 1_000_000.0)
        else if estimate > 1_000.0 then Printf.sprintf "%.2f us" (estimate /. 1_000.0)
        else Printf.sprintf "%.1f ns" estimate
      in
      Agg_util.Table.add_row table [ name; time; Printf.sprintf "%.3f" r2 ])
    (List.sort (fun (a, _) (b, _) -> compare a b) rows);
  Agg_util.Table.print table;
  let files =
    Agg_workload.Generator.generate_files ~seed:7 ~events:20_000 Agg_workload.Profile.server
  in
  let reps = if !quick_flag then 2 else 10 in
  let print_throughput title rows =
    let table = Agg_util.Table.create ~title ~columns:[ "policy"; "ops"; "ns/op"; "Mops/s" ] in
    List.iter
      (fun (name, ops, seconds) ->
        Agg_util.Table.add_row table
          [
            name;
            string_of_int ops;
            Printf.sprintf "%.0f" (seconds *. 1e9 /. float_of_int (max 1 ops));
            (if seconds > 0.0 then Printf.sprintf "%.2f" (float_of_int ops /. seconds /. 1e6)
             else "n/a");
          ])
      rows;
    Agg_util.Table.print table
  in
  let throughput = policy_throughput ~reps files in
  print_throughput "per-policy access throughput (server stream, capacity 500)" throughput;
  let weighted = weighted_throughput ~reps in
  print_throughput ("per-policy weighted throughput (" ^ weighted_stream ^ ")") weighted;
  write_micro_json ~unit:throughput ~weighted;
  Printf.printf "wrote %d policy rows to %s\n"
    (List.length throughput + List.length weighted)
    micro_json_path

(* --- BENCH_sweep.json ------------------------------------------------------ *)

let bench_json_path = "BENCH_sweep.json"

(* one timing record per executed section: (name, seconds at --jobs N,
   seconds at --jobs 1 when --sweep measured it) *)
type timing = { name : string; seconds : float; baseline_seconds : float option }

let write_bench_json ~jobs ~quick ~(settings : Agg_sim.Experiment.settings) timings =
  let oc = open_out bench_json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let total sel = List.fold_left (fun acc t -> acc +. sel t) 0.0 timings in
      let total_n = total (fun t -> t.seconds) in
      let total_1 = total (fun t -> Option.value ~default:0.0 t.baseline_seconds) in
      let swept = List.exists (fun t -> t.baseline_seconds <> None) timings in
      Printf.fprintf oc "{\n";
      Printf.fprintf oc "  \"jobs\": %d,\n" jobs;
      Printf.fprintf oc "  \"events\": %d,\n" settings.Agg_sim.Experiment.events;
      Printf.fprintf oc "  \"seed\": %d,\n" settings.Agg_sim.Experiment.seed;
      Printf.fprintf oc "  \"quick\": %b,\n" quick;
      Printf.fprintf oc "  \"recommended_domains\": %d,\n" (Agg_util.Pool.default_jobs ());
      Printf.fprintf oc "  \"sections\": [\n";
      List.iteri
        (fun i t ->
          let speedup =
            match t.baseline_seconds with
            | Some b when t.seconds > 0.0 ->
                Printf.sprintf ", \"jobs1_seconds\": %.3f, \"speedup_vs_jobs1\": %.2f" b
                  (b /. t.seconds)
            | _ -> ""
          in
          Printf.fprintf oc "    {\"name\": \"%s\", \"seconds\": %.3f%s}%s\n" (json_escape t.name)
            t.seconds speedup
            (if i = List.length timings - 1 then "" else ","))
        timings;
      Printf.fprintf oc "  ],\n";
      if swept then begin
        Printf.fprintf oc "  \"total_jobs1_seconds\": %.3f,\n" total_1;
        if total_n > 0.0 then
          Printf.fprintf oc "  \"total_speedup_vs_jobs1\": %.2f,\n" (total_1 /. total_n)
      end;
      Printf.fprintf oc "  \"total_seconds\": %.3f\n" total_n;
      Printf.fprintf oc "}\n")

(* Run [f] with stdout redirected to /dev/null — the --sweep timing runs
   would otherwise print every section twice. *)
let silently f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

(* --- main ------------------------------------------------------------------ *)

let sections =
  [
    ("workloads", `Settings run_workloads);
    ("fig3", `Settings run_fig3);
    ("fig4", `Settings run_fig4);
    ("fig5", `Settings run_fig5);
    ("fig7", `Settings run_fig7);
    ("fig8", `Settings run_fig8);
    ("summary", `Settings run_summary);
    ("checks", `Settings run_checks);
    ("ablations", `Settings run_ablations);
    ("latency", `Settings run_latency);
    ("fleet", `Settings run_fleet);
    ("scale", `Settings run_scale);
    ("micro", `Plain run_micro);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [SECTION...] [--quick] [--jobs N] [--sweep] [--obs] [--faults] [--cluster] \
     [--scenarios] [--telemetry] [--weighted]\nsections: %s | all\n"
    (String.concat " | " (List.map fst sections));
  exit 2

let obs_json_path = "BENCH_obs.json"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  quick_flag := quick;
  let sweep = List.mem "--sweep" args in
  let obs = List.mem "--obs" args in
  let faults = List.mem "--faults" args in
  let cluster = List.mem "--cluster" args in
  let scenarios = List.mem "--scenarios" args in
  let telemetry = List.mem "--telemetry" args in
  let weighted = List.mem "--weighted" args in
  if obs then profiler := Some (Agg_obs.Span.recorder ());
  let rec parse_jobs = function
    | "--jobs" :: n :: _ -> (
        match int_of_string_opt n with Some n when n > 0 -> n | _ -> usage ())
    | _ :: rest -> parse_jobs rest
    | [] -> Agg_util.Pool.default_jobs ()
  in
  let jobs = parse_jobs args in
  let rec strip = function
    | "--jobs" :: _ :: rest -> strip rest
    | flag :: rest
      when flag = "--quick" || flag = "--sweep" || flag = "--obs" || flag = "--faults"
           || flag = "--cluster" || flag = "--scenarios" || flag = "--telemetry"
           || flag = "--weighted" -> strip rest
    | arg :: rest -> arg :: strip rest
    | [] -> []
  in
  let wanted = strip args in
  let wanted = if wanted = [] || List.mem "all" wanted then List.map fst sections else wanted in
  let settings = settings ~quick ~jobs in
  let run_section ~name ~settings body =
    let go () = match body with `Settings f -> f ~settings | `Plain f -> f () in
    match !profiler with
    | Some recorder -> Agg_obs.Span.record recorder ~cat:"section" name go
    | None -> go ()
  in
  let timings =
    List.map
      (fun name ->
        match List.assoc_opt name sections with
        | None -> usage ()
        | Some body ->
            if sweep then begin
              (* measure the sequential path first, from a cold trace
                 store, then the parallel path, also from cold *)
              Agg_sim.Trace_store.reset ();
              let baseline =
                timed (fun () ->
                    silently (fun () ->
                        run_section ~name
                          ~settings:{ settings with Agg_sim.Experiment.jobs = 1 }
                          body))
              in
              Agg_sim.Trace_store.reset ();
              let seconds =
                timed (fun () -> silently (fun () -> run_section ~name ~settings body))
              in
              Printf.printf "%-10s  jobs=1  %7.2fs   jobs=%-3d %7.2fs   speedup %.2fx\n%!" name
                baseline jobs seconds
                (if seconds > 0.0 then baseline /. seconds else 0.0);
              { name; seconds; baseline_seconds = Some baseline }
            end
            else begin
              let seconds = timed (fun () -> run_section ~name ~settings body) in
              { name; seconds; baseline_seconds = None }
            end)
      wanted
  in
  if faults then run_faults ~settings;
  if cluster then run_cluster ~settings;
  if scenarios then run_scenarios ~settings;
  if telemetry then run_telemetry ~settings;
  if weighted then run_weighted ~settings;
  write_bench_json ~jobs ~quick ~settings timings;
  match !profiler with
  | None -> ()
  | Some recorder ->
      let oc = open_out obs_json_path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Agg_obs.Span.write_chrome oc recorder);
      Printf.printf "\nwrote %d spans to %s (Chrome trace_event format)\n"
        (Agg_obs.Span.count recorder) obs_json_path
