(* Tests for the fault-injection layer: plan determinism and validation,
   resilience-policy arithmetic, the crafted timeout -> degraded-fetch
   path with exact pinned metrics, and the headline byte-identity
   property — a plan that can inject nothing leaves the cluster's results
   (on the Fig. 2 path and on the fleet, both one-node rings) exactly
   equal to the fault-free run. *)

open Agg_faults
module Cluster = Agg_cluster.Cluster
module Scheme = Agg_system.Scheme
module Cost_model = Agg_system.Cost_model

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- plan ------------------------------------------------------------- *)

let test_plan_disabled_when_rates_zero () =
  check_bool "none is disabled" false (Plan.enabled (Plan.make Plan.none));
  check_bool "default is enabled" true (Plan.enabled (Plan.make Plan.default));
  (* outages need period, rate and length all non-zero to ever fire *)
  let outage_without_length =
    { Plan.none with Plan.outage_period = 100; outage_rate = 0.5; outage_length = 0 }
  in
  check_bool "outage with zero length is disabled" false
    (Plan.enabled (Plan.make outage_without_length))

let test_plan_determinism () =
  let plan = Plan.make Plan.default in
  (* decisions are pure functions of the coordinates: re-asking after other
     queries, or from a second plan with the same config, changes nothing *)
  let probe p = List.init 200 (fun t -> Plan.message_lost p ~time:t ~attempt:(t mod 3)) in
  let first = probe plan in
  ignore (Plan.server_down plan ~time:17);
  ignore (Plan.latency_multiplier plan ~time:40 ~attempt:1);
  Alcotest.(check (list bool)) "same answers after interleaved queries" first (probe plan);
  Alcotest.(check (list bool)) "same answers from a fresh plan" first
    (probe (Plan.make Plan.default))

let test_plan_seed_matters () =
  let probe seed =
    let plan = Plan.make { Plan.default with Plan.seed } in
    List.init 500 (fun t -> Plan.message_lost plan ~time:t ~attempt:0)
  in
  check_bool "different seeds give different loss patterns" true (probe 11 <> probe 12)

let test_plan_extreme_rates () =
  let always = Plan.make { Plan.none with Plan.loss_rate = 1.0 } in
  let never = Plan.make { Plan.none with Plan.slow_rate = 1.0 } in
  for t = 0 to 99 do
    check_bool "loss 1.0 loses every attempt" true (Plan.message_lost always ~time:t ~attempt:0);
    check_bool "loss 0 never loses" false (Plan.message_lost never ~time:t ~attempt:0)
  done

let test_plan_outage_windows () =
  let config =
    { Plan.none with Plan.outage_period = 10; outage_rate = 1.0; outage_length = 4 }
  in
  let plan = Plan.make config in
  (* rate 1.0: every epoch starts with a 4-access outage *)
  for epoch = 0 to 4 do
    for offset = 0 to 9 do
      let time = (epoch * 10) + offset in
      check_bool
        (Printf.sprintf "t=%d down iff offset<4" time)
        (offset < 4) (Plan.server_down plan ~time)
    done
  done

let test_plan_validate () =
  let raises config =
    match Plan.validate config with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "loss > 1" true (raises { Plan.none with Plan.loss_rate = 1.5 });
  check_bool "negative rate" true (raises { Plan.none with Plan.crash_rate = -0.1 });
  check_bool "negative period" true (raises { Plan.none with Plan.outage_period = -1 });
  check_bool "multiplier < 1" true (raises { Plan.none with Plan.slow_multiplier = 0.5 });
  check_bool "defaults valid" false (raises Plan.default)

(* --- resilience policy ------------------------------------------------ *)

let test_backoff_arithmetic () =
  let r = Resilience.default in
  (* base 10ms, multiplier 2: backoff before retry k is 10 * 2^(k-1) *)
  check_float "retry 1" 10.0 (Resilience.backoff_ms r ~attempt:1);
  check_float "retry 2" 20.0 (Resilience.backoff_ms r ~attempt:2);
  check_float "retry 3" 40.0 (Resilience.backoff_ms r ~attempt:3);
  (* a failed non-final attempt costs its timeout plus the next backoff;
     the final attempt costs the timeout alone *)
  check_float "attempt 0 cost" 110.0 (Resilience.failure_cost_ms r ~attempt:0);
  check_float "attempt 1 cost" 120.0 (Resilience.failure_cost_ms r ~attempt:1);
  check_float "final attempt cost" 100.0 (Resilience.failure_cost_ms r ~attempt:2)

let test_resilience_validate () =
  let raises r =
    match Resilience.validate r with () -> false | exception Invalid_argument _ -> true
  in
  check_bool "negative timeout" true
    (raises { Resilience.default with Resilience.timeout_ms = -1.0 });
  check_bool "negative retries" true
    (raises { Resilience.default with Resilience.max_retries = -1 });
  check_bool "multiplier < 1" true
    (raises { Resilience.default with Resilience.backoff_multiplier = 0.5 });
  check_bool "default valid" false (raises Resilience.default)

(* --- counters --------------------------------------------------------- *)

let test_counters () =
  let c = Counters.create () in
  check_int "fresh total" 0 (Counters.total_faults c);
  c.Counters.timeouts <- 3;
  c.Counters.slowed_fetches <- 2;
  c.Counters.crashes <- 1;
  check_int "total" 6 (Counters.total_faults c);
  let d = Counters.copy c in
  check_bool "copy equal" true (Counters.equal c d);
  d.Counters.retries <- 9;
  check_bool "copy independent" false (Counters.equal c d)

(* --- crafted timeout -> degraded fallback ----------------------------- *)

(* loss 1.0: every attempt of every remote fetch times out, so each of the
   3 cold misses on [1;2;3;1;2] burns the full retry budget and falls back
   to a degraded single-file fetch. Everything below is pinned exactly. *)
let test_crafted_degraded_path () =
  let trace = Agg_trace.Trace.of_files [ 1; 2; 3; 1; 2 ] in
  let config =
    {
      Cluster.path_config with
      Cluster.client_capacity = 4;
      node_capacity = 8;
      client_scheme = Scheme.aggregating ~group_size:3 ();
      faults = { Plan.none with Plan.loss_rate = 1.0 };
    }
  in
  let r = Cluster.run config trace in
  check_int "accesses" 5 r.Cluster.accesses;
  check_int "client hits unchanged" 2 r.Cluster.client_hits;
  check_int "every miss degrades" 3 r.Cluster.faults.Counters.degraded_fetches;
  check_int "3 attempts per miss" 9 r.Cluster.faults.Counters.timeouts;
  check_int "all losses, no outages" 9 r.Cluster.faults.Counters.lost_messages;
  check_int "2 retries per miss" 6 r.Cluster.faults.Counters.retries;
  (* the demanded file is still served: one rtt and one file per miss,
     exactly the baseline's demand path *)
  check_int "rtts" 3 r.Cluster.server_requests;
  check_int "one file per degraded fetch" 3 r.Cluster.files_transferred;
  check_int "disk reads" 3 r.Cluster.store_fetches;
  (* latency: each miss waits out (timeout+backoff1) + (timeout+backoff2)
     + timeout = 330ms, then pays the ordinary disk fetch *)
  let wait =
    let r = Resilience.default in
    Resilience.failure_cost_ms r ~attempt:0
    +. Resilience.failure_cost_ms r ~attempt:1
    +. Resilience.failure_cost_ms r ~attempt:2
  in
  check_float "degraded wait" 330.0 wait;
  let fetch = Cost_model.demand_fetch_latency Cost_model.lan ~served_from_disk:true in
  let hit = Cost_model.lan.Cost_model.client_memory in
  check_float "mean latency pinned"
    (((3.0 *. (wait +. fetch)) +. (2.0 *. hit)) /. 5.0)
    r.Cluster.mean_latency

let test_crashes_wipe_cache () =
  let trace = Agg_trace.Trace.of_files [ 1; 1; 1; 1; 1 ] in
  let config =
    { Cluster.path_config with Cluster.faults = { Plan.none with Plan.crash_rate = 1.0 } }
  in
  let r = Cluster.run config trace in
  check_int "crash before every access" 5 r.Cluster.faults.Counters.crashes;
  check_int "no hits survive the wipes" 0 r.Cluster.client_hits;
  (* without crashes the same trace hits 4 of 5 *)
  let healthy = Cluster.run { config with Cluster.faults = Plan.none } trace in
  check_int "healthy hits" 4 healthy.Cluster.client_hits

let test_outage_counted_separately () =
  let trace = Agg_trace.Trace.of_files [ 1; 2; 3 ] in
  let config =
    {
      Cluster.path_config with
      Cluster.faults =
        { Plan.none with Plan.outage_period = 100; outage_rate = 1.0; outage_length = 100 };
    }
  in
  let r = Cluster.run config trace in
  check_int "every timeout is an outage denial" r.Cluster.faults.Counters.timeouts
    r.Cluster.faults.Counters.outage_denials;
  check_int "no message losses" 0 r.Cluster.faults.Counters.lost_messages;
  check_int "all misses degrade" 3 r.Cluster.faults.Counters.degraded_fetches

let test_slow_links_counted () =
  let trace = Agg_trace.Trace.of_files [ 1; 2; 3; 1; 2 ] in
  let config =
    {
      Cluster.path_config with
      Cluster.faults = { Plan.none with Plan.slow_rate = 1.0; slow_multiplier = 4.0 };
    }
  in
  let r = Cluster.run config trace in
  check_int "every completed fetch is slowed" r.Cluster.server_requests
    r.Cluster.faults.Counters.slowed_fetches;
  let healthy = Cluster.run { config with Cluster.faults = Plan.none } trace in
  (* only remote latencies are multiplied; hits are untouched *)
  check_bool "latency grows" true (r.Cluster.mean_latency > healthy.Cluster.mean_latency)

(* --- fleet under faults ----------------------------------------------- *)

let test_fleet_crashes_and_degradation () =
  let trace = Agg_workload.Generator.generate ~seed:5 ~events:4000 Agg_workload.Profile.users in
  let config =
    {
      Cluster.default_config with
      Cluster.clients = 4;
      client_capacity = 8;
      node_capacity = 16;
      faults = { Plan.default with Plan.crash_rate = 0.01 };
    }
  in
  let r = Cluster.run config trace in
  check_bool "crashes fired" true (r.Cluster.faults.Counters.crashes > 0);
  check_bool "losses fired" true (r.Cluster.faults.Counters.lost_messages > 0);
  check_bool "some fetches degraded" true (r.Cluster.faults.Counters.degraded_fetches > 0);
  let healthy = Cluster.run { config with Cluster.faults = Plan.none } trace in
  check_bool "faults cost client hits" true (r.Cluster.client_hits < healthy.Cluster.client_hits)

(* --- properties -------------------------------------------------------- *)

let fingerprint (r : Cluster.result) = (r, Format.asprintf "%a" Cluster.pp_result r)

let qcheck_tests =
  let open QCheck in
  let files_gen = list_of_size (Gen.int_range 10 300) (int_range 0 30) in
  [
    Test.make ~name:"zero-rate plan replays byte-identically to no-faults" ~count:60
      (pair files_gen (int_range 0 1000))
      (fun (files, seed) ->
        let trace = Agg_trace.Trace.of_files files in
        (* a plan with every rate at zero (loss 0.0, no outage windows) must
           take the literal fault-free code path, whatever its seed *)
        let zero = { Plan.none with Plan.seed } in
        let config (client_scheme, node_scheme) faults =
          {
            Cluster.path_config with
            Cluster.client_capacity = 4;
            node_capacity = 8;
            client_scheme;
            node_scheme;
            faults;
          }
        in
        List.for_all
          (fun schemes ->
            fingerprint (Cluster.run (config schemes zero) trace)
            = fingerprint (Cluster.run (config schemes Plan.none) trace))
          [
            (Scheme.plain_lru, Scheme.plain_lru);
            (Scheme.aggregating ~group_size:3 (), Scheme.plain_lru);
            (Scheme.aggregating ~group_size:3 (), Scheme.aggregating ~group_size:6 ());
          ]);
    Test.make ~name:"fleet: zero-rate plan replays byte-identically" ~count:40
      (pair files_gen (int_range 0 1000))
      (fun (files, seed) ->
        let trace = Agg_trace.Trace.of_files files in
        let config faults =
          {
            Cluster.default_config with
            Cluster.clients = 3;
            client_capacity = 4;
            node_capacity = 8;
            faults;
          }
        in
        fingerprint (Cluster.run (config { Plan.none with Plan.seed }) trace)
        = fingerprint (Cluster.run (config Plan.none) trace));
    Test.make ~name:"faulty runs are deterministic run-to-run" ~count:30 files_gen (fun files ->
        let trace = Agg_trace.Trace.of_files files in
        let config =
          {
            Cluster.path_config with
            Cluster.client_scheme = Scheme.aggregating ~group_size:3 ();
            client_capacity = 4;
            node_capacity = 8;
            faults = { Plan.default with Plan.crash_rate = 0.01 };
          }
        in
        let a = Cluster.run config trace and b = Cluster.run config trace in
        fingerprint a = fingerprint b && Counters.equal a.Cluster.faults b.Cluster.faults);
    Test.make ~name:"degraded + served = round trips + hits identity" ~count:40
      (pair files_gen (float_bound_inclusive 1.0))
      (fun (files, loss_rate) ->
        let trace = Agg_trace.Trace.of_files files in
        let config =
          {
            Cluster.path_config with
            Cluster.client_scheme = Scheme.aggregating ~group_size:3 ();
            client_capacity = 4;
            node_capacity = 8;
            faults = { Plan.none with Plan.loss_rate };
          }
        in
        let r = Cluster.run config trace in
        (* every access is a hit or a completed fetch (degraded fetches
           still complete), and the retry budget bounds the timeouts *)
        r.Cluster.client_hits + r.Cluster.server_requests = r.Cluster.accesses
        && r.Cluster.faults.Counters.timeouts
           <= (Resilience.default.Resilience.max_retries + 1) * r.Cluster.server_requests);
    (* A plan folds its seed into each fault class's stream once, at
       [make]; every answer must still be the one that folds seed, tag and
       coordinates into one key per query and maps the draw by division. *)
    (let rate = Gen.(oneof [ float_range 0.0 1.0; oneofl [ 0.0; 0.05; 1.0 ] ]) in
     let coordinate = Gen.(oneof [ int; int_range (-3) 3_000; oneofl [ max_int; min_int ] ]) in
     let gen =
       Gen.(
         pair
           (pair
              (quad (oneof [ int; oneofl [ 0; -1; max_int; min_int ] ]) rate rate rate)
              (quad rate (int_range 0 40) (int_range 0 50) (float_range 1.0 8.0)))
           (triple coordinate (int_range 0 5) (int_range 0 20)))
     in
     Test.make ~name:"plan answers fold seed, tag and coordinates into one key" ~count:3000
       (make gen)
       (fun ( ( (seed, loss_rate, outage_rate, crash_rate),
                (slow_rate, outage_period, outage_length, slow_multiplier) ),
              (time, attempt, client) ) ->
         let plan =
           Plan.make
             {
               Plan.seed;
               loss_rate;
               outage_period;
               outage_rate;
               outage_length;
               slow_rate;
               slow_multiplier;
               crash_rate;
             }
         in
         let mix acc v = (acc * 0x100000001b3) lxor (v land max_int) in
         let fires ~tag ~a ~b ~p =
           p > 0.0
           &&
           let key = mix (mix (mix (mix 0x2545F4914F6CDD1D seed) tag) a) b in
           float_of_int (Agg_util.Prng.first_draw ~seed:(key land max_int) lsr 9)
           /. 9007199254740992.0
           < p
         in
         let on = Plan.enabled plan in
         let down =
           on && outage_period > 0 && outage_rate > 0.0 && outage_length > 0 && time >= 0
           && time mod outage_period < Int.min outage_length outage_period
           && fires ~tag:2 ~a:(time / outage_period) ~b:0 ~p:outage_rate
         in
         Plan.message_lost plan ~time ~attempt = (on && fires ~tag:1 ~a:time ~b:attempt ~p:loss_rate)
         && Plan.server_down plan ~time = down
         && Plan.latency_multiplier plan ~time ~attempt
            = (if on && fires ~tag:3 ~a:time ~b:attempt ~p:slow_rate then slow_multiplier else 1.0)
         && Plan.client_crashes plan ~time ~client
            = (on && fires ~tag:4 ~a:time ~b:client ~p:crash_rate)));
    Test.make ~name:"backoff is monotone in attempt" ~count:100
      (pair (int_range 1 20) (int_range 1 19))
      (fun (a, b) ->
        let r = Resilience.default in
        let lo = min a (a + b) and hi = max a (a + b) in
        Resilience.backoff_ms r ~attempt:lo <= Resilience.backoff_ms r ~attempt:hi);
  ]

let () =
  Alcotest.run "agg_faults"
    [
      ( "plan",
        [
          Alcotest.test_case "disabled when rates zero" `Quick test_plan_disabled_when_rates_zero;
          Alcotest.test_case "deterministic" `Quick test_plan_determinism;
          Alcotest.test_case "seed matters" `Quick test_plan_seed_matters;
          Alcotest.test_case "extreme rates" `Quick test_plan_extreme_rates;
          Alcotest.test_case "outage windows" `Quick test_plan_outage_windows;
          Alcotest.test_case "validate" `Quick test_plan_validate;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "backoff arithmetic" `Quick test_backoff_arithmetic;
          Alcotest.test_case "validate" `Quick test_resilience_validate;
        ] );
      ("counters", [ Alcotest.test_case "copy/equal/total" `Quick test_counters ]);
      ( "path under faults",
        [
          Alcotest.test_case "crafted degraded path" `Quick test_crafted_degraded_path;
          Alcotest.test_case "crashes wipe cache" `Quick test_crashes_wipe_cache;
          Alcotest.test_case "outage accounting" `Quick test_outage_counted_separately;
          Alcotest.test_case "slow links" `Quick test_slow_links_counted;
        ] );
      ( "fleet under faults",
        [ Alcotest.test_case "crashes and degradation" `Quick test_fleet_crashes_and_degradation ]
      );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
