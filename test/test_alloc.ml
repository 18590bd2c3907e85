(* Allocation pins for the per-access paths and workload generation.
   Each per-call pin counts minor-heap words with [Gc.minor_words] around
   10k calls. The suite is built with the dev profile of `dune runtest`,
   where dune compiles with [-opaque] and no function is inlined across
   modules, so a pin holds without the optimiser's help: a float or
   [Int64] returned across a module boundary would be boxed and show up
   here. The per-access pins
   replay whole runs and also count major-heap words: the footprint of
   the state a run builds (successor metadata above all), which a tracker
   sized by the id space rather than by the files it tracks would
   inflate. *)

module Prng = Agg_util.Prng
module Dist = Agg_util.Dist
module Plan = Agg_faults.Plan
module Ring = Agg_cluster.Ring
module Cluster = Agg_cluster.Cluster
module Tracker = Agg_successor.Tracker
module Cache = Agg_cache.Cache
module Sink = Agg_obs.Sink
module Scheme = Agg_system.Scheme

let calls = 10_000

(* Minor words per call of [f i] for i = 1 .. calls, after one warm-up
   call. The loop itself allocates nothing. *)
let words_per_call f =
  f 0;
  let before = Gc.minor_words () in
  for i = 1 to calls do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let allocation_free name f =
  Alcotest.test_case name `Quick (fun () ->
      let words = words_per_call f in
      if words > 0.01 then
        Alcotest.failf "%s allocates %.3f words per call (pin: at most 0.01)" name words)

(* every fault class on, so each query reaches its draw *)
let plan =
  Plan.make
    {
      Plan.default with
      Plan.loss_rate = 0.3;
      outage_period = 100;
      outage_rate = 0.5;
      outage_length = 40;
      slow_rate = 0.3;
      crash_rate = 0.1;
    }

let parent = Prng.create ~seed:42 ()

(* advanced by the sampling pins; [parent] is only derived from *)
let stream = Prng.create ~seed:9 ()

(* the write profile's background table *)
let zipf = Dist.Zipf.create ~n:22_000 ~s:0.55
let ring = Ring.create ~seed:7 ~nodes:5 ()

(* grown: every file the pin observes already has its slots *)
let tracker =
  let t = Tracker.create () in
  for f = 0 to 999 do
    Tracker.observe t f
  done;
  t

(* holds the pin's whole key range: misses insert, nothing is evicted
   (an evicting miss returns its victims as a list, per [Policy.S]) *)
let lru = Cache.create Cache.Lru ~capacity:2_048
let event = Agg_obs.Event.Demand_miss { file = 1 }

let per_call_pins =
  [
    allocation_free "Plan.message_lost" (fun i ->
        ignore (Plan.message_lost plan ~time:i ~attempt:(i land 3)));
    allocation_free "Plan.server_down" (fun i -> ignore (Plan.server_down plan ~time:i));
    allocation_free "Plan.latency_multiplier" (fun i ->
        ignore (Plan.latency_multiplier plan ~time:i ~attempt:(i land 3)));
    allocation_free "Plan.client_crashes" (fun i ->
        ignore (Plan.client_crashes plan ~time:i ~client:(i land 7)));
    allocation_free "Prng.first_draw" (fun i -> ignore (Prng.first_draw ~seed:i));
    allocation_free "Prng.derive_draw" (fun i -> ignore (Prng.derive_draw parent i));
    allocation_free "Prng.draw_bernoulli" (fun i ->
        ignore (Prng.draw_bernoulli (Prng.first_draw ~seed:i) ~p:0.5));
    allocation_free "Prng.bernoulli" (fun _ -> ignore (Prng.bernoulli stream ~p:0.5));
    allocation_free "Prng.int" (fun i -> ignore (Prng.int stream (1 + (i land 1_023))));
    allocation_free "Dist.Zipf.sample, 22k ranks" (fun _ -> ignore (Dist.Zipf.sample zipf stream));
    allocation_free "Ring.owner" (fun i -> ignore (Ring.owner ring i));
    allocation_free "Ring.in_group" (fun i ->
        ignore (Ring.in_group ring ~replicas:3 ~node:(i mod 5) i));
    allocation_free "Tracker.observe on a grown tracker" (fun i ->
        Tracker.observe tracker (i * 7 mod 1_000));
    allocation_free "unit-weight LRU Cache.access" (fun i ->
        ignore (Cache.access lru (i * 13 mod 1_500)));
    allocation_free "Sink.emit Sink.noop" (fun _ -> Sink.emit Sink.noop event);
  ]

(* Minor and major-heap words per access of [run ()], which replays
   [accesses] accesses. Major-heap words are those promoted out of the
   minor heap plus blocks allocated there directly (arrays too large for
   the minor heap, such as a tracker's successor regions). *)
let words_per_access ~accesses run =
  let _, _, major = Gc.counters () in
  let minor = Gc.minor_words () in
  let r = run () in
  let minor' = Gc.minor_words () in
  let _, _, major' = Gc.counters () in
  let per x = x /. float_of_int accesses in
  (r, per (minor' -. minor), per (major' -. major))

(* The cluster-faults shape: five nodes, three replicas, replicated
   metadata, g = 5 at both levels, loss, per-node outages, slow links,
   client crashes, and one node leaving and rejoining. What it still
   allocates per access are the lists the group, ring and policy APIs
   return. *)
let cluster_faults_words () =
  let events = 20_000 in
  let seed = 101 in
  let trace = Agg_workload.Generator.generate ~seed ~events Agg_workload.Profile.server in
  let config =
    {
      Cluster.default_config with
      Cluster.nodes = 5;
      replicas = 3;
      ring_seed = seed;
      metadata = Cluster.Replicated_with_group;
      client_scheme = Scheme.Aggregating Agg_core.Config.default;
      node_scheme = Scheme.Aggregating Agg_core.Config.default;
      faults =
        {
          Plan.default with
          Plan.seed;
          loss_rate = 0.05;
          outage_period = 1_000;
          outage_rate = 0.2;
          outage_length = 400;
          crash_rate = 0.001;
        };
      churn = [ (events / 3, Cluster.Leave 4); (2 * events / 3, Cluster.Join 4) ];
    }
  in
  let r, minor, major = words_per_access ~accesses:events (fun () -> Cluster.run config trace) in
  Alcotest.(check int) "every access replayed" events r.Cluster.accesses;
  (minor, major)

let cluster_faults_run = lazy (cluster_faults_words ())

let test_cluster_words_per_access () =
  let words, _ = Lazy.force cluster_faults_run in
  if words > 200.0 then
    Alcotest.failf "Cluster.run allocates %.1f words per access (pin: at most 200)" words

let test_cluster_major_words_per_access () =
  let _, words = Lazy.force cluster_faults_run in
  if words > 45.0 then
    Alcotest.failf "Cluster.run allocates %.1f major-heap words per access (pin: at most 45)"
      words

(* The paper's two aggregating configurations on the write profile, the
   one with the widest id space per event: a g = 5 client of 300 files,
   then an LRU filter of 100 in front of a g = 5 server of 300. *)
let test_client_server_major_words_per_access () =
  let events = 6_000 in
  let files = Agg_workload.Generator.generate_files ~seed:7 ~events Agg_workload.Profile.write in
  let _, _, words =
    words_per_access ~accesses:(2 * events) (fun () ->
        let client = Agg_core.Client_cache.create ~capacity:300 () in
        ignore (Agg_core.Client_cache.run_files client files);
        let path =
          Agg_core.Server_cache.create ~filter_kind:Cache.Lru ~filter_capacity:100
            ~server_capacity:300
            ~scheme:(Agg_core.Server_cache.Aggregating Agg_core.Config.default) ()
        in
        ignore (Agg_core.Server_cache.run_files path files))
  in
  if words > 70.0 then
    Alcotest.failf
      "Client_cache and Server_cache allocate %.1f major-heap words per access (pin: at most 70)"
      words

(* Generation, set-up included, over 60k events of each paper profile.
   The Zipf tables and the output array go straight to the major heap;
   most of the minor words left are the set-up's task scripts, amortised
   over the stream. *)
let test_generate_words_per_event () =
  let events = 60_000 in
  List.iter
    (fun (profile : Agg_workload.Profile.t) ->
      let _, words, _ =
        words_per_access ~accesses:events (fun () ->
            Agg_workload.Generator.generate_files ~seed:7 ~events profile)
      in
      if words > 4.0 then
        Alcotest.failf "Generator.generate_files (%s) allocates %.1f words per event (pin: at most 4)"
          profile.name words)
    Agg_workload.Profile.all

let () =
  Alcotest.run "alloc"
    [
      ("per call", per_call_pins);
      ( "per access",
        [
          Alcotest.test_case "Cluster.run, cluster-faults shape" `Quick
            test_cluster_words_per_access;
          Alcotest.test_case "Cluster.run major heap, cluster-faults shape" `Quick
            test_cluster_major_words_per_access;
          Alcotest.test_case "Client_cache and Server_cache major heap, write profile" `Quick
            test_client_server_major_words_per_access;
        ] );
      ( "per event",
        [
          Alcotest.test_case "Generator.generate_files, paper profiles" `Quick
            test_generate_words_per_event;
        ] );
    ]
