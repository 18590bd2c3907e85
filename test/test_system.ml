(* Tests for the Fig. 2 path — the one-client, one-node cooperative
   cluster: cost arithmetic, accounting identities, and the latency
   orderings the deployments must satisfy. *)

open Agg_system
module Cluster = Agg_cluster.Cluster

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let test_cost_model_arithmetic () =
  let c = Cost_model.lan in
  check_float "memory-served fetch" (0.5 +. 0.05 +. 0.2)
    (Cost_model.demand_fetch_latency c ~served_from_disk:false);
  check_float "disk-served fetch" (0.5 +. 8.0 +. 0.2)
    (Cost_model.demand_fetch_latency c ~served_from_disk:true);
  check_bool "wan slower" true
    (Cost_model.demand_fetch_latency Cost_model.wan ~served_from_disk:false
    > Cost_model.demand_fetch_latency Cost_model.lan ~served_from_disk:false)

(* a 4-file client over an 8-file server *)
let small_config client_scheme node_scheme =
  {
    Cluster.path_config with
    Cluster.client_capacity = 4;
    node_capacity = 8;
    client_scheme;
    node_scheme;
  }

let g3 = Scheme.aggregating ~group_size:3 ()

let deployment_config (_, client_scheme, node_scheme) =
  { Cluster.path_config with Cluster.client_scheme; node_scheme }

(* g = 5 client, g = 10 server; "deployment names" pins the order *)
let agg_both = deployment_config (List.nth Scheme.deployments 2)

let test_baseline_crafted_latencies () =
  (* capacity 4 client: 1 2 3 1 2 -> misses 1,2,3 then hits 1,2 *)
  let trace = Agg_trace.Trace.of_files [ 1; 2; 3; 1; 2 ] in
  let r = Cluster.run (small_config Scheme.plain_lru Scheme.plain_lru) trace in
  check_int "accesses" 5 r.Cluster.accesses;
  check_int "client hits" 2 r.Cluster.client_hits;
  check_int "rtts" 3 r.Cluster.server_requests;
  check_int "disk reads (cold server)" 3 r.Cluster.store_fetches;
  check_int "one file per rtt" 3 r.Cluster.files_transferred;
  let expect_mean =
    ((3.0 *. Cost_model.demand_fetch_latency Cost_model.lan ~served_from_disk:true)
    +. (2.0 *. Cost_model.lan.Cost_model.client_memory))
    /. 5.0
  in
  check_float "mean latency" expect_mean r.Cluster.mean_latency

let test_accounting_identities () =
  let trace =
    Agg_workload.Generator.generate ~seed:5 ~events:8000 Agg_workload.Profile.workstation
  in
  List.iter
    (fun deployment ->
      let r = Cluster.run (deployment_config deployment) trace in
      check_int "accesses = trace" (Agg_trace.Trace.length trace) r.Cluster.accesses;
      check_int "rtts = client misses" (r.Cluster.accesses - r.Cluster.client_hits)
        r.Cluster.server_requests;
      check_bool "transferred >= rtts" true
        (r.Cluster.files_transferred >= r.Cluster.server_requests);
      check_bool "server hits <= rtts" true (r.Cluster.server_hits <= r.Cluster.server_requests);
      check_bool "latency ordering" true
        (r.Cluster.mean_latency <= r.Cluster.p95_latency
        && r.Cluster.p95_latency <= r.Cluster.p99_latency))
    Scheme.deployments

let test_baseline_transfers_one_per_rtt () =
  let trace =
    Agg_workload.Generator.generate ~seed:5 ~events:5000 Agg_workload.Profile.server
  in
  let r = Cluster.run Cluster.path_config trace in
  check_int "baseline sends exactly one file per round trip" r.Cluster.server_requests
    r.Cluster.files_transferred

let test_aggregation_cuts_latency_on_predictable_workload () =
  let trace =
    Agg_workload.Generator.generate ~seed:7 ~events:15_000 Agg_workload.Profile.server
  in
  let baseline, agg, both =
    match List.map (fun d -> Cluster.run (deployment_config d) trace) Scheme.deployments with
    | [ baseline; agg; both ] -> (baseline, agg, both)
    | _ -> Alcotest.fail "three deployments"
  in
  check_bool "fewer round trips" true
    (agg.Cluster.server_requests < baseline.Cluster.server_requests);
  check_bool "lower mean latency" true (agg.Cluster.mean_latency < baseline.Cluster.mean_latency);
  check_bool "bandwidth is the price" true
    (agg.Cluster.files_transferred > baseline.Cluster.files_transferred);
  check_bool "server staging helps server hits" true
    (both.Cluster.server_hits >= agg.Cluster.server_hits)

let test_deployment_names () =
  Alcotest.(check (list string))
    "baseline, client, both" [ "baseline"; "agg-client"; "agg-both" ]
    (List.map (fun (name, _, _) -> name) Scheme.deployments)

let test_empty_trace () =
  let r = Cluster.run Cluster.path_config (Agg_trace.Trace.create ()) in
  check_int "no accesses" 0 r.Cluster.accesses;
  check_float "zero latency" 0.0 r.Cluster.mean_latency

(* --- telemetry: series + trace context -------------------------------- *)

let hostile_faults =
  {
    Agg_faults.Plan.none with
    Agg_faults.Plan.loss_rate = 0.1;
    outage_period = 2_000;
    outage_rate = 0.1;
    outage_length = 200;
    seed = 11;
  }

let test_path_series_reconciles () =
  let trace =
    Agg_workload.Generator.generate ~seed:7 ~events:8_000 Agg_workload.Profile.server
  in
  let series = Agg_obs.Series.create ~window:1_000 in
  let ctx = Agg_obs.Trace_ctx.create ~seed:7 () in
  let config =
    { agg_both with Cluster.faults = hostile_faults;
      scope = Some (Agg_obs.Scope.create ~series ~trace_ctx:ctx ()) }
  in
  let r = Cluster.run config trace in
  check_int "series accesses = run accesses" r.Cluster.accesses
    (Agg_obs.Series.total_accesses series);
  check_int "series hits = client hits" r.Cluster.client_hits (Agg_obs.Series.total_hits series);
  check_int "series degraded = fault counter"
    r.Cluster.faults.Agg_faults.Counters.degraded_fetches
    (Agg_obs.Series.total_degraded series);
  check_int "every access carries one latency sample" r.Cluster.accesses
    (Agg_obs.Histogram.count (Agg_obs.Series.total_latency series));
  (* the series' latency mass equals the run's mean within the per-access
     microsecond rounding *)
  let series_ms =
    float_of_int (Agg_obs.Histogram.sum (Agg_obs.Series.total_latency series)) /. 1000.0
  in
  let run_ms = r.Cluster.mean_latency *. float_of_int r.Cluster.accesses in
  check_bool "latency mass matches within rounding" true
    (Float.abs (series_ms -. run_ms) <= 0.0005 *. float_of_int r.Cluster.accesses);
  (* sample 1.0: every request committed, roots = accesses, and the
     attribution profile covers the phases the path actually took *)
  check_int "every request traced" r.Cluster.accesses (Agg_obs.Trace_ctx.sampled_requests ctx);
  let roots =
    List.length
      (List.filter (fun s -> s.Agg_obs.Trace_ctx.depth = 0) (Agg_obs.Trace_ctx.spans ctx))
  in
  check_int "one root span per request" r.Cluster.accesses roots;
  let cats = List.map fst (Agg_obs.Trace_ctx.attribution ctx) in
  check_bool "attribution names the fetch and timeout phases" true
    (List.mem "fetch" cats && List.mem "timeout" cats)

let test_path_telemetry_off_identity () =
  let trace =
    Agg_workload.Generator.generate ~seed:7 ~events:6_000 Agg_workload.Profile.server
  in
  let run ~telemetry =
    let base = { agg_both with Cluster.faults = hostile_faults } in
    let config =
      if telemetry then
        { base with
          Cluster.scope =
            Some
              (Agg_obs.Scope.create
                 ~series:(Agg_obs.Series.create ~window:500)
                 ~trace_ctx:(Agg_obs.Trace_ctx.create ~sample:0.5 ~seed:3 ())
                 ()) }
      else base
    in
    Cluster.run config trace
  in
  check_bool "instrumented run byte-identical to plain run" true
    (run ~telemetry:false = run ~telemetry:true)

let qcheck_tests =
  let open QCheck in
  let files_gen = list_of_size (Gen.int_range 10 300) (int_range 0 30) in
  [
    Test.make ~name:"latency bounded by worst-case fetch" ~count:60 files_gen (fun files ->
        let trace = Agg_trace.Trace.of_files files in
        let r = Cluster.run (small_config g3 Scheme.plain_lru) trace in
        let worst = Cost_model.demand_fetch_latency Cost_model.lan ~served_from_disk:true in
        r.Cluster.mean_latency >= Cost_model.lan.Cost_model.client_memory -. 1e-9
        && r.Cluster.p99_latency <= worst +. 1e-9);
    Test.make ~name:"client hits + rtts = accesses" ~count:60 files_gen (fun files ->
        let trace = Agg_trace.Trace.of_files files in
        let r = Cluster.run (small_config g3 (Scheme.aggregating ~group_size:6 ())) trace in
        r.Cluster.client_hits + r.Cluster.server_requests = r.Cluster.accesses);
  ]

let () =
  Alcotest.run "agg_system"
    [
      ( "cost model",
        [ Alcotest.test_case "arithmetic" `Quick test_cost_model_arithmetic ] );
      ( "path",
        [
          Alcotest.test_case "baseline crafted latencies" `Quick test_baseline_crafted_latencies;
          Alcotest.test_case "accounting identities" `Quick test_accounting_identities;
          Alcotest.test_case "baseline one file per rtt" `Quick test_baseline_transfers_one_per_rtt;
          Alcotest.test_case "aggregation cuts latency" `Quick
            test_aggregation_cuts_latency_on_predictable_workload;
          Alcotest.test_case "deployment names" `Quick test_deployment_names;
          Alcotest.test_case "empty trace" `Quick test_empty_trace;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "path series reconciles" `Quick test_path_series_reconciles;
          Alcotest.test_case "telemetry off is byte-identical" `Quick
            test_path_telemetry_off_identity;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
