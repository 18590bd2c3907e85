(* Integration tests: each figure experiment runs end-to-end at reduced
   scale, and the structural invariants of the results are checked —
   series shapes, value ranges, and the orderings that must hold even in
   miniature (oracle below any online policy, grouping no worse than LRU
   on predictable workloads, and so on). *)

open Agg_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* small but not degenerate: enough events for the orderings to show *)
let tiny = { Experiment.events = 4000; seed = 7; jobs = 2 }

let series_named panel label =
  match List.find_opt (fun s -> s.Experiment.label = label) panel.Experiment.series with
  | Some s -> s
  | None -> Alcotest.failf "series %s missing" label

let all_points panel = List.concat_map (fun s -> s.Experiment.points) panel.Experiment.series

(* --- Experiment helpers ------------------------------------------------- *)

let test_series_value () =
  let s = { Experiment.label = "x"; points = [ (1.0, 10.0); (2.0, 20.0) ] } in
  check_bool "present" true (Experiment.series_value s 2.0 = Some 20.0);
  check_bool "absent" true (Experiment.series_value s 3.0 = None)

let test_panel_table_renders () =
  let panel =
    {
      Experiment.name = "p";
      x_label = "x";
      y_label = "y";
      series = [ { Experiment.label = "a"; points = [ (1.0, 2.0) ] } ];
    }
  in
  let table = Experiment.panel_table ~figure_id:"figX" panel in
  check_bool "non-empty" true (String.length (Agg_util.Table.render table) > 0);
  let fig = { Experiment.id = "figX"; title = "t"; panels = [ panel ] } in
  check_bool "figure renders" true (String.length (Experiment.render_figure fig) > 0)

(* --- Trace_store -------------------------------------------------------- *)

let test_trace_store_sharing () =
  Trace_store.reset ();
  let a = Trace_store.get ~settings:tiny Agg_workload.Profile.server in
  let b = Trace_store.get ~settings:tiny Agg_workload.Profile.server in
  check_bool "equal keys share one trace" true (a == b);
  let fa = Trace_store.files ~settings:tiny Agg_workload.Profile.server in
  let fb = Trace_store.files ~settings:tiny Agg_workload.Profile.server in
  check_bool "files array shared too" true (fa == fb);
  Alcotest.(check (array int)) "files match the trace" (Agg_trace.Trace.files a) fa;
  let other_seed = Trace_store.get ~settings:{ tiny with seed = 8 } Agg_workload.Profile.server in
  check_bool "distinct seeds give distinct traces" true (a != other_seed);
  check_bool "distinct seeds give distinct contents" true
    (Agg_trace.Trace.files a <> Agg_trace.Trace.files other_seed);
  let other_profile = Trace_store.get ~settings:tiny Agg_workload.Profile.users in
  check_bool "distinct profiles give distinct traces" true (a != other_profile);
  check_int "three distinct keys memoized" 3 (Trace_store.size ());
  Trace_store.reset ();
  check_int "reset empties the store" 0 (Trace_store.size ());
  let c = Trace_store.get ~settings:tiny Agg_workload.Profile.server in
  check_bool "regenerated trace has identical contents" true
    (Agg_trace.Trace.files a = Agg_trace.Trace.files c)

let test_trace_store_files_fast_path () =
  (* [files] on a cold store generates and keeps the trace: the stream
     equals the projection of [get]'s trace *)
  Trace_store.reset ();
  let cold = Trace_store.files ~settings:tiny Agg_workload.Profile.users in
  let via_trace =
    Agg_trace.Trace.files (Trace_store.get ~settings:tiny Agg_workload.Profile.users)
  in
  Alcotest.(check (array int)) "files equals trace projection" via_trace cold;
  (* and the memoized entry keeps serving the same array *)
  let again = Trace_store.files ~settings:tiny Agg_workload.Profile.users in
  check_bool "files array memoized" true (cold == again);
  Trace_store.reset ()

let test_trace_store_concurrent () =
  Trace_store.reset ();
  let traces =
    Agg_util.Pool.map ~jobs:4
      (fun _ -> Trace_store.get ~settings:tiny Agg_workload.Profile.server)
      (List.init 8 (fun i -> i))
  in
  (match traces with
  | first :: rest -> List.iter (fun t -> check_bool "all domains share one trace" true (t == first)) rest
  | [] -> Alcotest.fail "no traces");
  check_int "generated once" 1 (Trace_store.size ())

(* --- determinism across jobs -------------------------------------------- *)

let test_jobs_determinism () =
  (* the ISSUE 1 acceptance bar in miniature: a figure rendered on one
     domain and on four must be byte-identical *)
  let settings = Experiment.quick_settings in
  let sequential =
    Experiment.render_figure
      (Fig3.run (Experiment.Runner.create ~settings:{ settings with jobs = 1 } ()))
  in
  let parallel =
    Experiment.render_figure
      (Fig3.run (Experiment.Runner.create ~settings:{ settings with jobs = 4 } ()))
  in
  Alcotest.(check string) "fig3 at jobs=1 equals jobs=4" sequential parallel

let test_entropy_figures_jobs_determinism () =
  (* fig7 and fig8 evaluate one cell per stream, covering every length *)
  let render jobs =
    let runner = Experiment.Runner.create ~settings:{ tiny with jobs } () in
    Experiment.render_figure (Fig7.run runner) ^ Experiment.render_figure (Fig8.run runner)
  in
  Alcotest.(check string) "fig7 and fig8 at jobs=1 equal jobs=2" (render 1) (render 2)

(* --- Fig. 3 ---------------------------------------------------------------- *)

let tiny_runner = Experiment.Runner.create ~settings:tiny ()

let fig3_panel =
  lazy (Fig3.panel ~capacities:[ 100; 300 ] ~runner:tiny_runner Agg_workload.Profile.server)

let test_fig3_shape () =
  let panel = Lazy.force fig3_panel in
  check_int "six series" 6 (List.length panel.Experiment.series);
  List.iter
    (fun s -> check_int (s.Experiment.label ^ " points") 2 (List.length s.Experiment.points))
    panel.Experiment.series;
  List.iter (fun (_, y) -> check_bool "positive fetches" true (y > 0.0)) (all_points panel)

let test_fig3_grouping_never_worse () =
  let panel = Lazy.force fig3_panel in
  let lru = series_named panel "lru" in
  List.iter
    (fun grouped ->
      if grouped.Experiment.label <> "lru" then
        List.iter2
          (fun (x, y_lru) (x', y_g) ->
            check_bool "same xs" true (x = x');
            check_bool
              (Printf.sprintf "%s <= lru at %g" grouped.Experiment.label x)
              true (y_g <= y_lru))
          lru.Experiment.points grouped.Experiment.points)
    panel.Experiment.series

let test_fig3_fetches_decrease_with_capacity () =
  let panel = Lazy.force fig3_panel in
  List.iter
    (fun s ->
      match s.Experiment.points with
      | [ (_, small); (_, large) ] ->
          check_bool (s.Experiment.label ^ " monotone in capacity") true (large <= small)
      | _ -> Alcotest.fail "expected two points")
    panel.Experiment.series

(* --- Fig. 4 ----------------------------------------------------------------- *)

let fig4_panel =
  lazy
    (Fig4.panel ~filter_capacities:[ 50; 400 ] ~runner:tiny_runner ~name:"server" Fig4.paper_rows
       Agg_workload.Profile.server)

let test_fig4_shape () =
  let panel = Lazy.force fig4_panel in
  check_int "three series" 3 (List.length panel.Experiment.series);
  List.iter
    (fun (_, y) -> check_bool "hit rate within [0,100]" true (y >= 0.0 && y <= 100.0))
    (all_points panel)

let test_fig4_aggregating_resilient () =
  let panel = Lazy.force fig4_panel in
  let g5 = series_named panel "g5" in
  let lru = series_named panel "lru" in
  let at s x =
    match Experiment.series_value s x with Some v -> v | None -> Alcotest.fail "missing x"
  in
  check_bool "g5 survives large filters better than lru" true (at g5 400.0 > at lru 400.0)

(* --- Fig. 5 ------------------------------------------------------------------ *)

let fig5_panel =
  lazy (Fig5.panel ~capacities:[ 1; 4; 8 ] ~runner:tiny_runner Agg_workload.Profile.server)

let test_fig5_probabilities_valid () =
  let panel = Lazy.force fig5_panel in
  List.iter
    (fun (_, y) -> check_bool "probability in [0,1]" true (y >= 0.0 && y <= 1.0))
    (all_points panel)

let test_fig5_oracle_lower_bound () =
  let panel = Lazy.force fig5_panel in
  let oracle = series_named panel "oracle" in
  List.iter
    (fun s ->
      if s.Experiment.label <> "oracle" then
        List.iter2
          (fun (_, o) (_, y) -> check_bool "oracle <= online policy" true (o <= y +. 1e-9))
          oracle.Experiment.points s.Experiment.points)
    panel.Experiment.series

let test_fig5_more_successors_help () =
  let panel = Lazy.force fig5_panel in
  let lru = series_named panel "lru" in
  match List.map snd lru.Experiment.points with
  | [ p1; p4; p8 ] ->
      check_bool "more capacity, fewer misses" true (p4 <= p1 && p8 <= p4)
  | _ -> Alcotest.fail "expected three capacities"

let test_fig5_direct_miss_probability () =
  (* a strict cycle has a single successor per file: capacity 1 suffices
     and only cold pairs miss *)
  let files = Array.concat (List.init 50 (fun _ -> [| 1; 2; 3 |])) in
  let p =
    Fig5.miss_probability ~policy:Agg_successor.Successor_list.Recency ~capacity:1 files
  in
  check_bool "only cold misses" true (p < 0.03);
  let oracle = Fig5.oracle_miss_probability files in
  check_bool "oracle likewise" true (oracle <= p)

(* --- Fig. 7 / Fig. 8 ------------------------------------------------------------ *)

let test_fig7_shape () =
  let fig = Fig7.run ~lengths:[ 1; 2; 4 ] tiny_runner in
  check_int "one panel" 1 (List.length fig.Experiment.panels);
  let panel = List.hd fig.Experiment.panels in
  check_int "four workloads" 4 (List.length panel.Experiment.series);
  List.iter
    (fun s ->
      check_int "three lengths" 3 (List.length s.Experiment.points);
      List.iter (fun (_, h) -> check_bool "entropy >= 0" true (h >= 0.0)) s.Experiment.points)
    panel.Experiment.series

let test_fig8_shape () =
  let panel =
    Fig8.panel ~filter_capacities:[ 10; 200 ] ~lengths:[ 1; 2 ] ~runner:tiny_runner
      Agg_workload.Profile.write
  in
  check_int "two filters" 2 (List.length panel.Experiment.series);
  List.iter
    (fun s -> check_bool "label is capacity" true (s.Experiment.label = "10" || s.Experiment.label = "200"))
    panel.Experiment.series

(* --- Weighted sweep ----------------------------------------------------------- *)

let test_weighted_sweep_shape () =
  let cells = Weighted.sweep ~capacities:[ 400 ] tiny_runner in
  check_int "4 policies x 2 sized profiles" 8 (List.length cells);
  List.iter
    (fun (c : Weighted.cell) ->
      let ctx = Printf.sprintf "%s/%s" c.Weighted.profile c.Weighted.policy in
      check_bool (ctx ^ " policy known") true (List.mem c.Weighted.policy Weighted.policies);
      check_bool (ctx ^ " byte hit rate in [0,1]") true
        (c.Weighted.byte_hit_rate >= 0.0 && c.Weighted.byte_hit_rate <= 1.0);
      check_bool (ctx ^ " cost saved in [0,1]") true
        (c.Weighted.cost_saved_rate >= 0.0 && c.Weighted.cost_saved_rate <= 1.0);
      check_bool (ctx ^ " paid something") true (c.Weighted.total_cost > 0))
    cells;
  check_int "no verdict without the verdict capacity" 0 (List.length (Weighted.verdicts cells));
  let at_verdict =
    Weighted.sweep ~capacities:[ Weighted.default_verdict_capacity ] tiny_runner
  in
  let vs = Weighted.verdicts at_verdict in
  check_int "one verdict per sized profile" 2 (List.length vs);
  List.iter
    (fun (v : Weighted.verdict) ->
      check_bool "verdict is the cost comparison" true
        (v.Weighted.g5_wins = (v.Weighted.g5_cost < v.Weighted.landlord_cost));
      let cost policy =
        List.find
          (fun (c : Weighted.cell) ->
            c.Weighted.profile = v.Weighted.v_profile && c.Weighted.policy = policy)
          at_verdict
      in
      check_int "g5 cost read off its cell" (cost "g5").Weighted.total_cost v.Weighted.g5_cost;
      check_int "landlord cost read off its cell" (cost "landlord").Weighted.total_cost
        v.Weighted.landlord_cost)
    vs

(* --- Summary / Report -------------------------------------------------------------- *)

let test_summary_client_rows () =
  let rows = Summary.client_rows ~settings:tiny ~capacity:200 () in
  check_int "four workloads" 4 (List.length rows);
  List.iter
    (fun (r : Summary.client_row) ->
      check_bool "lru fetches positive" true (r.Summary.lru_fetches > 0);
      check_bool "g5 no worse" true (r.Summary.g5_fetches <= r.Summary.lru_fetches))
    rows;
  check_bool "table renders" true
    (String.length (Agg_util.Table.render (Summary.client_table rows)) > 0)

let tiny_fig4 = lazy (Fig4.run tiny_runner)

let test_summary_server_rows () =
  let fig4 = Lazy.force tiny_fig4 in
  let rows = Summary.server_rows fig4 in
  let filters = List.length Fig4.default_filter_capacities in
  Alcotest.(check (list string))
    "one row per panel and filter capacity, in panel order"
    (List.concat_map (fun w -> List.init filters (fun _ -> w)) [ "workstation"; "users"; "server" ])
    (List.map (fun (r : Summary.server_row) -> r.Summary.workload) rows);
  (* every row is Fig. 4's g5 and lru cell at its filter capacity *)
  List.iter
    (fun (r : Summary.server_row) ->
      let panel =
        List.find (fun p -> p.Experiment.name = r.Summary.workload) fig4.Experiment.panels
      in
      let at label =
        Experiment.series_value (series_named panel label)
          (float_of_int r.Summary.filter_capacity)
      in
      check_bool "g5 is fig4's g5 cell" true (at "g5" = Some r.Summary.g5_hit_rate);
      check_bool "lru is fig4's lru cell" true (at "lru" = Some r.Summary.lru_hit_rate))
    rows;
  check_bool "table renders" true
    (String.length (Agg_util.Table.render (Summary.server_table rows)) > 0)

let test_summary_improvement_edge_cases () =
  (* pins the nan/inf leak fixed with the obs PR: a dead LRU baseline must
     render as "n/a", never nan or inf, and 0-vs-0 is 0 % improvement *)
  check_bool "0 vs 0 improves by 0" true (Summary.improvement ~lru:0.0 ~g5:0.0 = 0.0);
  check_bool "gain over dead baseline is +inf" true
    (Summary.improvement ~lru:0.0 ~g5:5.0 = Float.infinity);
  check_bool "never nan" true
    (List.for_all
       (fun (lru, g5) -> not (Float.is_nan (Summary.improvement ~lru ~g5)))
       [ (0.0, 0.0); (0.0, 5.0); (5.0, 0.0); (5.0, 5.0) ]);
  let row lru g5 =
    {
      Summary.workload = "crafted";
      filter_capacity = 100;
      lru_hit_rate = lru;
      g5_hit_rate = g5;
      improvement_percent = Summary.improvement ~lru ~g5;
    }
  in
  let rendered = Agg_util.Table.render (Summary.server_table [ row 0.0 0.0; row 0.0 5.0 ]) in
  let has needle =
    let n = String.length needle and h = String.length rendered in
    let rec loop i = i + n <= h && (String.sub rendered i n = needle || loop (i + 1)) in
    loop 0
  in
  check_bool "renders n/a for unbounded improvement" true (has "n/a");
  check_bool "no nan in table" true (not (has "nan"));
  check_bool "no bare inf in table" true (not (has "inf"))

let test_report_checks_structure () =
  (* tiny-scale runs need not pass the paper's quantitative bars, but the
     checks must all run and produce both fields *)
  let fig3 = Fig3.run tiny_runner in
  let fig5 = Fig5.run tiny_runner in
  let fig7 = Fig7.run tiny_runner in
  let fig8 = Fig8.run tiny_runner in
  let checks = Report.checks ~fig3 ~fig4:(Lazy.force tiny_fig4) ~fig5 ~fig7 ~fig8 in
  check_int "24 checks" 24 (List.length checks);
  List.iter
    (fun c ->
      check_bool "id non-empty" true (String.length c.Report.id > 0);
      check_bool "measured non-empty" true (String.length c.Report.measured > 0))
    checks;
  check_bool "table renders" true (String.length (Agg_util.Table.render (Report.table checks)) > 0)

(* --- Export / Plot ----------------------------------------------------------------- *)

let sample_panel =
  {
    Experiment.name = "sample";
    x_label = "x";
    y_label = "y";
    series =
      [
        { Experiment.label = "a"; points = [ (1.0, 10.0); (2.0, 20.0) ] };
        { Experiment.label = "b,quoted"; points = [ (1.0, 5.0) ] };
      ];
  }

let test_export_csv_shape () =
  let csv = Export.panel_csv sample_panel in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 2 rows" 3 (List.length lines);
  (match lines with
  | header :: row1 :: _ ->
      Alcotest.(check string) "header quoted" "x,a,\"b,quoted\"" header;
      Alcotest.(check string) "first row" "1,10,5" row1
  | _ -> Alcotest.fail "missing lines");
  (* missing point renders as an empty cell *)
  check_bool "empty cell for missing point" true
    (List.exists (fun l -> l = "2,20,") lines)

let test_export_write_figure () =
  let fig = { Experiment.id = "figX"; title = "t"; panels = [ sample_panel ] } in
  let dir = Filename.temp_file "aggcsv" "" in
  Sys.remove dir;
  let written = Export.write_figure ~dir fig in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove written;
      Sys.rmdir dir)
    (fun () ->
      check_int "one file" 1 (List.length written);
      check_bool "file exists" true (Sys.file_exists (List.hd written));
      check_bool "named after panel" true
        (Filename.basename (List.hd written) = "figx-sample.csv"))

let test_plot_renders () =
  let rendered = Plot.render ~width:30 ~height:8 sample_panel in
  check_bool "mentions series glyphs" true
    (String.contains rendered '*' && String.contains rendered 'o');
  check_bool "has legend" true
    (String.length rendered > 0
    &&
    let lines = String.split_on_char '\n' rendered in
    List.exists (fun l -> l = "  * = a") lines);
  let empty =
    Plot.render { Experiment.name = "e"; x_label = "x"; y_label = "y"; series = [] }
  in
  check_bool "empty panel placeholder" true (empty = "(no data for e)\n")

(* --- Ablations ------------------------------------------------------------------------ *)

let test_ablation_member_position () =
  let panel =
    Ablations.member_position ~settings:tiny ~capacities:[ 200 ] Agg_workload.Profile.server
  in
  check_int "three series" 3 (List.length panel.Experiment.series);
  (* both insertion positions must beat plain LRU on the server workload *)
  let v label =
    match Experiment.series_value (series_named panel label) 200.0 with
    | Some v -> v
    | None -> Alcotest.fail "missing"
  in
  check_bool "tail beats lru" true (v "g5-tail" < v "lru");
  check_bool "head beats lru" true (v "g5-head" < v "lru")

let test_ablation_metadata_policy () =
  let panel =
    Ablations.metadata_policy ~settings:tiny ~capacities:[ 200 ] Agg_workload.Profile.server
  in
  check_int "two series" 2 (List.length panel.Experiment.series)

let test_ablation_successor_capacity () =
  let panel =
    Ablations.successor_capacity ~settings:tiny ~capacities:[ 1; 8 ] Agg_workload.Profile.server
  in
  match (List.hd panel.Experiment.series).Experiment.points with
  | [ (_, one); (_, eight) ] ->
      check_bool "more metadata never hurts much" true (eight <= one *. 1.1)
  | _ -> Alcotest.fail "expected two points"

let test_ablation_baselines () =
  let panel = Ablations.baselines ~settings:tiny ~capacities:[ 200 ] Agg_workload.Profile.server in
  check_int "four series" 4 (List.length panel.Experiment.series)

let test_ablation_cooperative () =
  let panel =
    Ablations.cooperative ~settings:tiny ~filter_capacities:[ 100 ] Agg_workload.Profile.server
  in
  check_int "two series" 2 (List.length panel.Experiment.series)

let test_predictor_accuracy_table () =
  let table = Ablations.predictor_accuracy ~settings:tiny () in
  check_bool "renders" true (String.length (Agg_util.Table.render table) > 0)

let test_ablation_second_level_policies () =
  let panel =
    Ablations.second_level_policies ~settings:tiny ~filter_capacities:[ 400 ]
      Agg_workload.Profile.server
  in
  check_int "seven series" 7 (List.length panel.Experiment.series);
  let at label =
    match Experiment.series_value (series_named panel label) 400.0 with
    | Some v -> v
    | None -> Alcotest.fail "missing point"
  in
  (* grouping must beat every plain policy, including MQ, at a filter
     larger than the server capacity *)
  List.iter
    (fun label -> check_bool ("agg-g5 beats " ^ label) true (at "agg-g5" > at label))
    [ "lru"; "lfu"; "mq"; "slru"; "2q"; "arc" ]

let test_ablation_sequence_model () =
  let table = Ablations.sequence_model ~settings:tiny ~lengths:[ 1; 2 ] () in
  check_bool "renders" true (String.length (Agg_util.Table.render table) > 0)

let test_ablation_placement () =
  let table = Ablations.placement ~settings:tiny Agg_workload.Profile.server in
  check_bool "renders" true (String.length (Agg_util.Table.render table) > 0)

let test_ablation_overlap_vs_partition () =
  let table = Ablations.overlap_vs_partition ~settings:tiny Agg_workload.Profile.server in
  check_bool "renders" true (String.length (Agg_util.Table.render table) > 0)

let test_ablation_adaptive_group () =
  let table = Ablations.adaptive_group ~settings:tiny () in
  check_bool "renders" true (String.length (Agg_util.Table.render table) > 0)

(* --- Runner API & resilience sweep -------------------------------------- *)

let test_runner_scope_inert () =
  (* a runner carrying a full scope must render byte-identically to the
     scopeless default, while its profiler observes every sweep cell *)
  let plain = Experiment.render_figure (Fig3.run (Experiment.Runner.create ~settings:tiny ())) in
  let recorder = Agg_obs.Span.recorder () in
  let instrumented =
    Experiment.render_figure
      (Fig3.run
         (Experiment.Runner.create
            ~scope:(Agg_obs.Scope.create ~profiler:recorder ())
            ~settings:tiny ()))
  in
  Alcotest.(check string) "scope leaves the figure unchanged" plain instrumented;
  check_bool "profiler timed the sweep cells" true (Agg_obs.Span.count recorder > 0)

(* The loss sweep is scenarios/sweeps/resilience.scn; narrowed to two loss
   rates, its cells and its ledger are the same at jobs=1 and jobs=4. *)
let test_resilience_sweep_jobs_determinism () =
  let dir = if Sys.file_exists "../scenarios" then "../scenarios" else "scenarios" in
  let s =
    match Agg_scenario.Scenario.load_file (Filename.concat dir "sweeps/resilience.scn") with
    | Ok s -> { s with Agg_scenario.Scenario.sweeps = [ Agg_scenario.Scenario.Loss [ 0.0; 0.1 ] ] }
    | Error msg -> Alcotest.failf "%s" msg
  in
  let sweep jobs =
    match Agg_scenario.Exec.run ~jobs ~events_cap:tiny.Experiment.events s with
    | Ok o -> o
    | Error msg -> Alcotest.failf "resilience sweep: %s" msg
  in
  let a = sweep 1 and b = sweep 4 in
  check_int "two policies at two loss rates" 4 (List.length a.Agg_scenario.Exec.cells);
  check_bool "every check passes" true a.Agg_scenario.Exec.pass;
  Alcotest.(check string) "cells identical at jobs=1 and jobs=4"
    (Agg_scenario.Exec.render_outcome a) (Agg_scenario.Exec.render_outcome b);
  let json o = Agg_util.Json.to_string (Scenarios.json_of_outcome o) in
  Alcotest.(check string) "ledger identical at jobs=1 and jobs=4" (json a) (json b)

let () =
  Alcotest.run "agg_sim"
    [
      ( "experiment",
        [
          Alcotest.test_case "series_value" `Quick test_series_value;
          Alcotest.test_case "panel table" `Quick test_panel_table_renders;
        ] );
      ( "trace-store",
        [
          Alcotest.test_case "sharing" `Quick test_trace_store_sharing;
          Alcotest.test_case "files fast path" `Quick test_trace_store_files_fast_path;
          Alcotest.test_case "concurrent get" `Quick test_trace_store_concurrent;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig3 jobs=1 vs jobs=4" `Quick test_jobs_determinism;
          Alcotest.test_case "fig7 and fig8 jobs=1 vs jobs=2" `Quick
            test_entropy_figures_jobs_determinism;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "shape" `Quick test_fig3_shape;
          Alcotest.test_case "grouping never worse" `Quick test_fig3_grouping_never_worse;
          Alcotest.test_case "monotone in capacity" `Quick test_fig3_fetches_decrease_with_capacity;
        ] );
      ( "fig4",
        [
          Alcotest.test_case "shape" `Quick test_fig4_shape;
          Alcotest.test_case "aggregating resilient" `Quick test_fig4_aggregating_resilient;
        ] );
      ( "fig5",
        [
          Alcotest.test_case "probabilities valid" `Quick test_fig5_probabilities_valid;
          Alcotest.test_case "oracle lower bound" `Quick test_fig5_oracle_lower_bound;
          Alcotest.test_case "more successors help" `Quick test_fig5_more_successors_help;
          Alcotest.test_case "direct miss probability" `Quick test_fig5_direct_miss_probability;
        ] );
      ( "fig7-fig8",
        [
          Alcotest.test_case "fig7 shape" `Quick test_fig7_shape;
          Alcotest.test_case "fig8 shape" `Quick test_fig8_shape;
        ] );
      ( "runner-resilience",
        [
          Alcotest.test_case "scope-carrying runner inert" `Quick test_runner_scope_inert;
          Alcotest.test_case "sweep jobs=1 vs jobs=4" `Quick
            test_resilience_sweep_jobs_determinism;
        ] );
      ( "weighted",
        [ Alcotest.test_case "sweep cells and verdicts" `Quick test_weighted_sweep_shape ] );
      ( "summary-report",
        [
          Alcotest.test_case "client rows" `Quick test_summary_client_rows;
          Alcotest.test_case "server rows" `Quick test_summary_server_rows;
          Alcotest.test_case "improvement edge cases" `Quick test_summary_improvement_edge_cases;
          Alcotest.test_case "report checks" `Slow test_report_checks_structure;
        ] );
      ( "export-plot",
        [
          Alcotest.test_case "csv shape" `Quick test_export_csv_shape;
          Alcotest.test_case "write figure" `Quick test_export_write_figure;
          Alcotest.test_case "plot renders" `Quick test_plot_renders;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "member position" `Quick test_ablation_member_position;
          Alcotest.test_case "metadata policy" `Quick test_ablation_metadata_policy;
          Alcotest.test_case "successor capacity" `Quick test_ablation_successor_capacity;
          Alcotest.test_case "baselines" `Quick test_ablation_baselines;
          Alcotest.test_case "cooperative" `Quick test_ablation_cooperative;
          Alcotest.test_case "predictor accuracy" `Quick test_predictor_accuracy_table;
          Alcotest.test_case "second-level policies" `Quick test_ablation_second_level_policies;
          Alcotest.test_case "sequence model" `Quick test_ablation_sequence_model;
          Alcotest.test_case "placement" `Quick test_ablation_placement;
          Alcotest.test_case "overlap vs partition" `Quick test_ablation_overlap_vs_partition;
          Alcotest.test_case "adaptive group" `Quick test_ablation_adaptive_group;
        ] );
    ]
