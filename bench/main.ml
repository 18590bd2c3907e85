(* The benchmark harness: regenerates the data series behind every figure
   of the paper's evaluation (Figs. 3, 4, 5, 7, 8), the headline summary
   numbers, the design-choice ablations, the automated paper-vs-measured
   checks, the extension passes (resilience, cluster, scenario corpus,
   telemetry, weighted caching), and a set of Bechamel micro-benchmarks of
   the core operations.

   Usage:
     dune exec bench/main.exe                 # every section
     dune exec bench/main.exe fig3 fig4       # a subset
     dune exec bench/main.exe micro           # only the micro-benchmarks
     dune exec bench/main.exe all --quick     # reduced event counts
     dune exec bench/main.exe -- --jobs 4     # evaluate sweeps on 4 domains
     dune exec bench/main.exe -- --sweep      # time --jobs 1 vs --jobs N
     dune exec bench/main.exe -- --obs        # also write BENCH_obs.json

   The latency, fleet, faults and cluster sections run the sweeps stated
   in ./scenarios/sweeps/{latency,fleet,resilience,cluster}.scn. Sections
   that write a result ledger: faults (BENCH_faults.json), cluster
   (BENCH_cluster.json), scenarios (BENCH_scenarios.json, reading
   ./scenarios/*.scn), telemetry (BENCH_telemetry.json), weighted
   (BENCH_weighted.json) and micro (BENCH_micro.json). Every ledger is
   written by [write_ledger], all but BENCH_obs.json (Agg_obs.Span's Chrome
   trace) as an Agg_util.Json value.

   Output on stdout is deterministic (fixed seeds) apart from the
   micro-benchmark timings, and identical for every --jobs value. A run
   that executes a section records wall-clock per section in
   BENCH_sweep.json: when the ledger there was written for the same
   jobs, events, seed and quick flag, only the sections that ran are
   replaced and the rest are kept; otherwise it is rewritten, and the
   run says so. --sweep additionally measures the speedup of --jobs N over --jobs 1; --obs
   additionally profiles every section and sweep cell as spans
   and writes them as Chrome trace_event JSON to BENCH_obs.json (open in
   chrome://tracing or Perfetto). *)

module Json = Agg_util.Json

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

(* The one place a ledger is written: [text] replaces the file at [path]. *)
let write_ledger path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* Set by --obs: every sweep then times each cell, and every section
   becomes a span, all exported to BENCH_obs.json. *)
let profiler : Agg_obs.Span.recorder option ref = ref None

(* the runner every sweep section shares: one scope holding the --obs
   profiler (if any), [None] otherwise *)
let runner ~settings =
  let scope = Option.map (fun profiler -> Agg_obs.Scope.create ~profiler ()) !profiler in
  Agg_sim.Experiment.Runner.create ?scope ~settings ()

(* --- figure sections -------------------------------------------------- *)

(* A pass is one settings value. Each of fig3, fig4, fig5, fig7 and fig8 is
   computed at most once per pass, by whichever section reads it first:
   the figure sections print it, [summary] and [checks] are views of it.
   --sweep starts a new pass, from a cold Trace_store, before each timing
   it takes, so that no timing is a lookup. *)
type pass = {
  settings : Agg_sim.Experiment.settings;
  fig3 : Agg_sim.Experiment.figure Lazy.t;
  fig4 : Agg_sim.Experiment.figure Lazy.t;
  fig5 : Agg_sim.Experiment.figure Lazy.t;
  fig7 : Agg_sim.Experiment.figure Lazy.t;
  fig8 : Agg_sim.Experiment.figure Lazy.t;
}

let pass ~settings =
  let figure run = lazy (run (runner ~settings)) in
  {
    settings;
    fig3 = figure Agg_sim.Fig3.run;
    fig4 = figure Agg_sim.Fig4.run;
    fig5 = figure Agg_sim.Fig5.run;
    fig7 = figure Agg_sim.Fig7.run;
    fig8 = figure Agg_sim.Fig8.run;
  }

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

let run_fig3 p =
  section "Fig. 3 — client demand fetches vs cache capacity (per group size)";
  Agg_sim.Experiment.print_figure (Lazy.force p.fig3)

let run_fig4 p =
  section "Fig. 4 — server hit rate behind an intervening client cache";
  Agg_sim.Experiment.print_figure (Lazy.force p.fig4)

let run_fig5 p =
  section "Fig. 5 — successor-list replacement quality (oracle / LRU / LFU)";
  Agg_sim.Experiment.print_figure (Lazy.force p.fig5)

let run_fig7 p =
  section "Fig. 7 — successor entropy vs successor sequence length";
  Agg_sim.Experiment.print_figure (Lazy.force p.fig7)

let run_fig8 p =
  section "Fig. 8 — successor entropy of LRU-filtered miss streams";
  Agg_sim.Experiment.print_figure (Lazy.force p.fig8)

let run_summary p =
  section "Headline summary (abstract / conclusions numbers)";
  Agg_util.Table.print
    (Agg_sim.Summary.client_table (Agg_sim.Summary.client_rows ~settings:p.settings ()));
  Agg_util.Table.print
    (Agg_sim.Summary.server_table (Agg_sim.Summary.server_rows (Lazy.force p.fig4)))

let run_checks p =
  section "Paper-vs-measured checks";
  let fig3 = Lazy.force p.fig3 in
  let fig4 = Lazy.force p.fig4 in
  let fig5 = Lazy.force p.fig5 in
  let fig7 = Lazy.force p.fig7 in
  let fig8 = Lazy.force p.fig8 in
  let checks = Agg_sim.Report.checks ~fig3 ~fig4 ~fig5 ~fig7 ~fig8 in
  Agg_util.Table.print (Agg_sim.Report.table checks);
  Printf.printf "%s\n"
    (if Agg_sim.Report.all_pass checks then "ALL CHECKS PASS" else "SOME CHECKS FAILED")

let run_ablations ~settings =
  List.iter
    (fun (title, tables) ->
      section title;
      List.iter Agg_util.Table.print (tables ()))
    (Agg_sim.Ablations.all ~settings)

(* A sweep section: one scenario file of scenarios/sweeps, run at the
   pass's event count, printed as one table and its checks, and written
   to [ledger] when the section keeps one. *)
let run_sweep ?ledger file p =
  let path = Filename.concat "scenarios/sweeps" file in
  section ("Sweep — " ^ path);
  let settings = p.settings in
  match
    Result.bind (Agg_scenario.Scenario.load_file path)
      (Agg_scenario.Exec.run ~jobs:settings.Agg_sim.Experiment.jobs
         ~events_cap:settings.Agg_sim.Experiment.events ?scope:(runner ~settings).scope)
  with
  | Error msg ->
      Printf.eprintf "main.exe: %s\n" msg;
      exit 1
  | Ok o -> (
      Agg_util.Table.print (Agg_sim.Scenarios.table o);
      print_string (Agg_scenario.Exec.render_checks o);
      match ledger with
      | None -> ()
      | Some ledger ->
          write_ledger ledger (Json.to_string (Agg_sim.Scenarios.json_of_outcome o));
          Printf.printf "wrote %d sweep cells to %s\n"
            (List.length o.Agg_scenario.Exec.cells)
            ledger)

let run_scenarios p =
  section "Scenarios — declarative corpus with invariant checking (scenarios/*.scn)";
  let events_cap = if !quick_flag then Some 4_000 else None in
  let entries =
    Agg_sim.Scenarios.run_corpus ?events_cap ~runner:(runner ~settings:p.settings)
      (Agg_sim.Scenarios.corpus_files "scenarios")
  in
  print_string (Agg_sim.Scenarios.render entries);
  Printf.printf "corpus verdict: %s\n"
    (if Agg_sim.Scenarios.all_ok entries then "all ok" else "FAILURES");
  let path = "BENCH_scenarios.json" in
  write_ledger path (Json.to_string (Agg_sim.Scenarios.json_of_entries entries));
  Printf.printf "wrote %d scenario results to %s\n" (List.length entries) path

let run_weighted p =
  section "Weighted caching — size/cost-aware policies on the sized profiles";
  let cells = Agg_sim.Weighted.sweep (runner ~settings:p.settings) in
  Agg_sim.Experiment.print_figure (Agg_sim.Weighted.figure cells);
  List.iter
    (fun (v : Agg_sim.Weighted.verdict) ->
      Printf.printf "%s: g5 total retrieval cost %d vs landlord %d — g5 %s\n"
        v.Agg_sim.Weighted.v_profile v.Agg_sim.Weighted.g5_cost v.Agg_sim.Weighted.landlord_cost
        (if v.Agg_sim.Weighted.g5_wins then "wins" else "loses"))
    (Agg_sim.Weighted.verdicts cells);
  let path = "BENCH_weighted.json" in
  write_ledger path (Json.to_string (Agg_sim.Weighted.json_of_cells cells));
  Printf.printf "wrote %d sweep cells to %s\n" (List.length cells) path

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
let run_telemetry p =
  let settings = p.settings in
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
        Agg_cluster.Cluster.path_config with
        Agg_cluster.Cluster.client_scheme = scheme;
        node_scheme = scheme;
        faults;
        scope = Some (Agg_obs.Scope.create ~series ());
      }
    in
    ignore (Agg_cluster.Cluster.run config trace);
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
  let lru = recover Agg_system.Scheme.plain_lru in
  let g5 = recover (Agg_system.Scheme.aggregating ()) in
  let lru_steady, lru_dip_rate, lru_dip, lru_rec = lru in
  let g5_steady, g5_dip_rate, g5_dip, g5_rec = g5 in
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
  let recovery (steady, dip_rate, dip, windows) =
    Json.Obj
      [
        ("steady_hit_rate", Json.num "%.4f" steady);
        ("dip_hit_rate", Json.num "%.4f" dip_rate);
        ("dip_window", Json.int dip);
        ("recovery_windows", Json.int windows);
      ]
  in
  let path = "BENCH_telemetry.json" in
  write_ledger path
    (Json.to_string
       (Json.Obj
          [
            ("window", Json.int window);
            ("recovery", Json.Obj [ ("lru", recovery lru); ("g5", recovery g5) ]);
            ( "churn_skew",
              Json.Obj
                [
                  ("nodes", Json.int config.Agg_cluster.Cluster.nodes);
                  ("replicas", Json.int config.Agg_cluster.Cluster.replicas);
                  ("baseline_imbalance", Json.num "%.4f" baseline);
                  ("peak_imbalance", Json.num "%.4f" !peak);
                  ("peak_window", Json.int !peak_w);
                  ("rebalances", Json.int r.Agg_cluster.Cluster.rebalances);
                  ("moved_files", Json.int r.Agg_cluster.Cluster.moved_files);
                ] );
          ]));
  Printf.printf "wrote telemetry report to %s\n" path

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
   ten facades, where the weighted lift makes room by repeated core
   evictions, then the rent-based baselines — Landlord per file, and
   Bundle served as predicted groups the way the weighted sweep serves
   it, a resident file through its fused hit. The groups
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
                if not (B.hit b f ~cost:(weight_of f).Agg_cache.Policy.cost) then
                  ignore (B.request_bundle b ~weight_of groups.(i)))
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

(* Per-call cost of workload generation and of the layers under the
   cluster's miss path. [generate-paper-6k] generates a fresh 6k-event
   stream of each paper profile, Zipf table builds included, as every
   steady-benchmark set-up does; its ops are generated events.
   [zipf-sample-22k] samples the write profile's background table
   (22000 ranks, s = 0.55). The rest run on the same server stream: ring
   routing (the group walk, and the point lookup that picks a file's
   routing row) on a five-node ring at k = 3, one fault-plan decision under the
   default plan, a tracker observe, a g = 5 group build over a tracker
   that has seen the whole stream, and the cold-end admission of each
   access's prebuilt g = 5 group into a 500-file LRU. Routing, building
   and admission call the buffer forms the simulator's miss path calls
   ([Ring.group_into], [Group_builder.build_into],
   [Cache.insert_cold_into]), each writing into one reused array. The
   [tracker-observe] row feeds one tracker every repetition, so after the
   first pass it times a grown tracker; [tracker-observe-fresh] feeds
   each 6k-event paper-profile stream to a new tracker, as every replay
   of a run does, so it also pays for interning ids and growing the
   successor regions. *)
let layer_throughput ~reps files =
  let module Ring = Agg_cluster.Ring in
  let module Tracker = Agg_successor.Tracker in
  let ops = reps * Array.length files in
  let time name f =
    let seconds =
      timed (fun () ->
          for _ = 1 to reps do
            Array.iteri f files
          done)
    in
    (name, ops, seconds)
  in
  let ring = Ring.create ~seed:17 ~nodes:5 () in
  let plan = Agg_faults.Plan.make Agg_faults.Plan.default in
  let observed = Tracker.create () in
  Array.iter (Tracker.observe observed) files;
  let groups =
    Array.map (fun f -> Array.of_list (Agg_core.Group_builder.build observed ~group_size:5 f)) files
  in
  let route = Array.make 3 0 and group = Array.make 5 0 and admitted = Array.make 5 0 in
  let grown = Tracker.create () in
  let generate_paper () =
    List.map
      (fun profile -> Agg_workload.Generator.generate_files ~seed:7 ~events:6_000 profile)
      Agg_workload.Profile.all
  in
  let paper_streams = generate_paper () in
  let paper_events = List.fold_left (fun acc s -> acc + Array.length s) 0 paper_streams in
  let generate =
    let seconds =
      timed (fun () ->
          for _ = 1 to reps do
            ignore (generate_paper ())
          done)
    in
    ("generate-paper-6k", reps * paper_events, seconds)
  in
  let zipf = Agg_util.Dist.Zipf.create ~n:22_000 ~s:0.55 in
  let zipf_prng = Agg_util.Prng.create ~seed:7 () in
  let observe_fresh =
    let seconds =
      timed (fun () ->
          for _ = 1 to reps do
            List.iter
              (fun stream ->
                let tracker = Tracker.create () in
                Array.iter (Tracker.observe tracker) stream)
              paper_streams
          done)
    in
    ("tracker-observe-fresh", reps * paper_events, seconds)
  in
  let cache = Agg_cache.Cache.create Agg_cache.Cache.Lru ~capacity:500 in
  [
    generate;
    time "zipf-sample-22k" (fun _ _ -> ignore (Agg_util.Dist.Zipf.sample zipf zipf_prng));
    time "ring-group" (fun _ f -> ignore (Ring.group_into ring ~replicas:3 f route));
    time "ring-point-of" (fun _ f -> ignore (Ring.point_of ring f));
    time "fault-plan-decision" (fun i _ ->
        ignore (Agg_faults.Plan.message_lost plan ~time:i ~attempt:0));
    time "tracker-observe" (fun _ f -> Tracker.observe grown f);
    observe_fresh;
    time "group-build-g5" (fun _ f ->
        ignore (Agg_core.Group_builder.build_into observed ~group_size:5 f group));
    time "insert-cold-group" (fun i _ ->
        let g = groups.(i) in
        ignore
          (Agg_cache.Cache.insert_cold_into cache g ~pos:1 ~len:(Array.length g - 1) admitted));
  ]

let micro_json ~unit ~weighted ~layers =
  let rows ?(key = "policy") rows =
    Json.Arr
      (List.map
         (fun (name, ops, seconds) ->
           let ns_per_op = if ops = 0 then 0.0 else seconds *. 1e9 /. float_of_int ops in
           let mops = if seconds > 0.0 then float_of_int ops /. seconds /. 1e6 else 0.0 in
           Json.Obj
             [
               (key, Json.Str name);
               ("ops", Json.int ops);
               ("seconds", Json.num "%.4f" seconds);
               ("ns_per_op", Json.num "%.1f" ns_per_op);
               ("mops_per_sec", Json.num "%.2f" mops);
             ])
         rows)
  in
  Json.Obj
    [
      ("stream", Json.Str "server seed=7 events=20000 capacity=500");
      ("policies", rows unit);
      ("weighted_stream", Json.Str weighted_stream);
      ("weighted", rows weighted);
      ("layers", rows ~key:"layer" layers);
    ]

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
  let print_throughput ?(key = "policy") title rows =
    let table = Agg_util.Table.create ~title ~columns:[ key; "ops"; "ns/op"; "Mops/s" ] in
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
  let layers = layer_throughput ~reps files in
  print_throughput ~key:"layer"
    "per-layer call cost (generation; server stream, cluster miss path)" layers;
  let path = "BENCH_micro.json" in
  write_ledger path (Json.to_string (micro_json ~unit:throughput ~weighted ~layers));
  Printf.printf "wrote %d policy rows and %d layer rows to %s\n"
    (List.length throughput + List.length weighted)
    (List.length layers) path

(* --- BENCH_sweep.json ------------------------------------------------------ *)

let bench_json_path = "BENCH_sweep.json"

(* one timing record per executed section: (name, seconds at --jobs N,
   seconds at --jobs 1 when --sweep measured it) *)
type timing = { name : string; seconds : float; baseline_seconds : float option }

(* The ledger a run updates: its header — jobs, events, seed, quick — and
   its sections, read back from the format [write_bench_json] writes,
   each as its timing and the entry it was read from. [None] when there
   is no file or it does not parse. *)
let read_bench_json () =
  if not (Sys.file_exists bench_json_path) then None
  else
    let lines =
      List.map String.trim (In_channel.with_open_text bench_json_path In_channel.input_lines)
    in
    (* the value of a ["key": value,] header line *)
    let value key =
      let prefix = "\"" ^ key ^ "\": " in
      List.find_map
        (fun line ->
          if String.starts_with ~prefix line then
            let n = String.length prefix in
            let v = String.sub line n (String.length line - n) in
            Some
              (if String.ends_with ~suffix:"," v then String.sub v 0 (String.length v - 1) else v)
          else None)
        lines
    in
    (* a one-line [{"name": "fig5", "seconds": 1.234, ...}] entry, its
       numbers kept as the text they were written as *)
    let section line =
      Scanf.sscanf line "{\"name\": \"%s@\", %s@}" (fun name rest ->
          let numbers =
            List.map
              (fun member -> Scanf.sscanf member " \"%s@\": %s" (fun key v -> (key, v)))
              (String.split_on_char ',' rest)
          in
          let num key = Option.map float_of_string (List.assoc_opt key numbers) in
          ( { name; seconds = Option.get (num "seconds"); baseline_seconds = num "jobs1_seconds" },
            Json.Obj (("name", Json.Str name) :: List.map (fun (k, v) -> (k, Json.Num v)) numbers)
          ))
    in
    match
      ( int_of_string (Option.get (value "jobs")),
        int_of_string (Option.get (value "events")),
        int_of_string (Option.get (value "seed")),
        bool_of_string (Option.get (value "quick")),
        List.filter_map
          (fun line ->
            if String.starts_with ~prefix:"{\"name\"" line then Some (section line) else None)
          lines )
    with
    | jobs, events, seed, quick, sections -> Some ((jobs, events, seed, quick), sections)
    | exception (Invalid_argument _ | Failure _ | Scanf.Scan_failure _ | End_of_file) -> None

(* A run adds to the ledger: when the committed header matches this run,
   the sections that ran replace their entries and every other entry is
   kept, in place and exactly as it was read; new sections go last.
   Otherwise the ledger is rewritten from this run alone, and the run
   says so. *)
let write_bench_json ~jobs ~quick ~(settings : Agg_sim.Experiment.settings) timings =
  let header =
    (jobs, settings.Agg_sim.Experiment.events, settings.Agg_sim.Experiment.seed, quick)
  in
  let seconds key x = (key, Json.num "%.3f" x) in
  let speedup key base over =
    if over > 0.0 then [ (key, Json.num "%.2f" (base /. over)) ] else []
  in
  let section t =
    Json.Obj
      (("name", Json.Str t.name)
      :: seconds "seconds" t.seconds
      ::
      (match t.baseline_seconds with
      | Some b when t.seconds > 0.0 ->
          seconds "jobs1_seconds" b :: speedup "speedup_vs_jobs1" b t.seconds
      | _ -> []))
  in
  let ran = List.map (fun t -> (t, section t)) timings in
  let sections =
    match read_bench_json () with
    | Some (h, kept) when h = header ->
        let fresh name = List.find_opt (fun (t, _) -> t.name = name) ran in
        List.map (fun ((k, _) as kept) -> Option.value ~default:kept (fresh k.name)) kept
        @ List.filter (fun (t, _) -> not (List.exists (fun (k, _) -> k.name = t.name) kept)) ran
    | Some _ ->
        Printf.printf
          "%s: its jobs, events, seed or quick flag differ from this run's; rewriting it\n"
          bench_json_path;
        ran
    | None ->
        if Sys.file_exists bench_json_path then
          Printf.printf "%s: unreadable; rewriting it\n" bench_json_path;
        ran
  in
  let timings = List.map fst sections in
  let total sel = List.fold_left (fun acc t -> acc +. sel t) 0.0 timings in
  let total_1 = total (fun t -> Option.value ~default:0.0 t.baseline_seconds) in
  (* the speed-up compares only the sections that were swept *)
  let total_swept = total (fun t -> if t.baseline_seconds = None then 0.0 else t.seconds) in
  let totals =
    if List.for_all (fun t -> t.baseline_seconds = None) timings then []
    else
      seconds "total_jobs1_seconds" total_1
      :: speedup "total_speedup_vs_jobs1" total_1 total_swept
  in
  write_ledger bench_json_path
    (Json.to_string
       (Json.Obj
          ([
             ("jobs", Json.int jobs);
             ("events", Json.int settings.Agg_sim.Experiment.events);
             ("seed", Json.int settings.Agg_sim.Experiment.seed);
             ("quick", Json.Bool quick);
             ("recommended_domains", Json.int (Agg_util.Pool.default_jobs ()));
             ("sections", Json.Arr (List.map snd sections));
           ]
          @ totals
          @ [ seconds "total_seconds" (total (fun t -> t.seconds)) ])))

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
    ("workloads", fun p -> run_workloads ~settings:p.settings);
    ("fig3", run_fig3);
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("fig7", run_fig7);
    ("fig8", run_fig8);
    ("summary", run_summary);
    ("checks", run_checks);
    ("ablations", fun p -> run_ablations ~settings:p.settings);
    ("latency", run_sweep "latency.scn");
    ("fleet", run_sweep "fleet.scn");
    ("scale", fun p -> run_scale ~settings:p.settings);
    ("faults", run_sweep ~ledger:"BENCH_faults.json" "resilience.scn");
    ("cluster", run_sweep ~ledger:"BENCH_cluster.json" "cluster.scn");
    ("scenarios", run_scenarios);
    ("telemetry", run_telemetry);
    ("weighted", run_weighted);
    ("micro", fun _ -> run_micro ());
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [SECTION...] [--quick] [--jobs N] [--sweep] [--obs]\nsections: %s | all\n"
    (String.concat " | " (List.map fst sections));
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  quick_flag := quick;
  let sweep = List.mem "--sweep" args in
  let obs = List.mem "--obs" args in
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
    | flag :: rest when flag = "--quick" || flag = "--sweep" || flag = "--obs" -> strip rest
    | arg :: rest -> arg :: strip rest
    | [] -> []
  in
  let wanted = strip args in
  (* no section named means all of them *)
  let wanted = if wanted = [] || List.mem "all" wanted then List.map fst sections else wanted in
  if not (List.for_all (fun name -> List.mem_assoc name sections) wanted) then usage ();
  let settings = settings ~quick ~jobs in
  let run_section ~name pass body =
    let go () = body pass in
    match !profiler with
    | Some recorder -> Agg_obs.Span.record recorder ~cat:"section" name go
    | None -> go ()
  in
  let shared = pass ~settings in
  let timings =
    List.map
      (fun name ->
        let body = List.assoc name sections in
        if sweep then begin
          (* measure the sequential path first, then the parallel
             path, each in a new pass from a cold trace store *)
          Agg_sim.Trace_store.reset ();
          let sequential = pass ~settings:{ settings with Agg_sim.Experiment.jobs = 1 } in
          let baseline = timed (fun () -> silently (fun () -> run_section ~name sequential body)) in
          Agg_sim.Trace_store.reset ();
          let parallel = pass ~settings in
          let seconds = timed (fun () -> silently (fun () -> run_section ~name parallel body)) in
          Printf.printf "%-10s  jobs=1  %7.2fs   jobs=%-3d %7.2fs   speedup %.2fx\n%!" name
            baseline jobs seconds
            (if seconds > 0.0 then baseline /. seconds else 0.0);
          { name; seconds; baseline_seconds = Some baseline }
        end
        else begin
          let seconds = timed (fun () -> run_section ~name shared body) in
          { name; seconds; baseline_seconds = None }
        end)
      wanted
  in
  write_bench_json ~jobs ~quick ~settings timings;
  match !profiler with
  | None -> ()
  | Some recorder ->
      let path = "BENCH_obs.json" in
      write_ledger path (Agg_obs.Span.chrome_json recorder);
      Printf.printf "\nwrote %d spans to %s (Chrome trace_event format)\n"
        (Agg_obs.Span.count recorder) path
