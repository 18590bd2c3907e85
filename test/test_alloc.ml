(* Allocation pins for the per-access paths and workload generation.
   Each per-call pin counts minor-heap words with [Gc.minor_words] around
   10k calls. The suite is built with the dev profile of `dune runtest`,
   where dune compiles with [-opaque] and no function is inlined across
   modules, so a pin holds without the optimiser's help: a float or
   [Int64] returned across a module boundary would be boxed and show up
   here. The per-access pins replay whole runs and also count major-heap
   words: the footprint of the state a run builds (the pages of its
   successor regions and of every cache index, speculative set and
   intern table), which a table sized by the id space rather than by the
   files a run touches, or an array grown by doubling, would inflate. *)

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

(* A policy's arrays double once its residents outnumber
   [Policy.presize]. [grown c ~keys] passes keys [0 .. keys - 1] through
   [c] once and clears it, so a pin that inserts those keys measures
   admission, not growth. *)
let grown c ~keys =
  for k = 0 to keys - 1 do
    ignore (Cache.access c k)
  done;
  Cache.clear c;
  c

(* holds the pin's whole key range: misses insert, nothing is evicted *)
let lru = grown (Cache.create Cache.Lru ~capacity:2_048) ~keys:1_500

(* A cyclic scan over twice the capacity misses on every access, and
   each miss evicts: a full unit LRU. Warmed up, so every key it touches
   already has its index slot. *)
let full_lru =
  let c = Cache.create Cache.Lru ~capacity:1_024 in
  for i = 0 to 4_095 do
    ignore (Cache.access c (i land 2_047))
  done;
  c

(* The same scan through Clock, whose hand sweeps the slot bitset for
   each victim. *)
let full_clock =
  let c = Cache.create Cache.Clock ~capacity:1_024 in
  for i = 0 to 4_095 do
    ignore (Cache.access c (i land 2_047))
  done;
  c

(* The same scan through Random, whose victim leaves the middle of its
   dense key array: the last key moves into the hole. *)
let full_random =
  let c = Cache.create Cache.Random ~capacity:1_024 in
  for i = 0 to 4_095 do
    ignore (Cache.access c (i land 2_047))
  done;
  c

(* The same scan at sizes 1 and 4: a miss on a size-4 key evicts several
   residents. The weights are built once; [weight_of] only reads them. *)
let weights =
  Array.init 2_048 (fun k ->
      if k land 3 = 0 then { Agg_cache.Policy.size = 4; cost = 2 }
      else Agg_cache.Policy.unit_weight)

let full_weighted_lru =
  let c = Cache.create ~weight_of:(fun k -> weights.(k)) Cache.Lru ~capacity:1_024 in
  for i = 0 to 4_095 do
    ignore (Cache.access c (i land 2_047))
  done;
  c

(* Groups of four keys cycling through 4096: a full 1024-file LRU has
   evicted every member since it last saw it, so each admission first
   makes room for four. *)
let full_roomy =
  let c = Cache.create Cache.Lru ~capacity:1_024 in
  for k = 0 to 4_095 do
    ignore (Cache.access c k)
  done;
  c

let evicting_group = Array.make 4 0

(* The bundle baseline behind the facade, holding every key the pin
   touches: each access is a hit, a single re-key of Landlord's heap. *)
let bundle =
  let module B = Agg_baselines.Bundle in
  let c = Cache.of_policy (module B) (B.create ~capacity:2_048) in
  for k = 0 to 1_023 do
    ignore (Cache.access c k)
  done;
  c
let event = Agg_obs.Event.Demand_miss { file = 1 }

(* caller-owned buffers of the miss path *)
let route = Array.make 3 0
let group = Array.make 5 0
let admitted = Array.make 5 0

(* room for every member the admission pin offers: each call admits four
   new keys and evicts nothing *)
let roomy = grown (Cache.create Cache.Lru ~capacity:50_000) ~keys:40_004

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
    allocation_free "Ring.point_of" (fun i -> ignore (Ring.point_of ring i));
    allocation_free "Ring.point_group_into" (fun i ->
        ignore (Ring.point_group_into ring ~replicas:3 (i mod Ring.point_count ring) route));
    allocation_free "Ring.group_into" (fun i -> ignore (Ring.group_into ring ~replicas:3 i route));
    allocation_free "Group_builder.build_into on a grown tracker" (fun i ->
        ignore (Agg_core.Group_builder.build_into tracker ~group_size:5 (i * 7 mod 1_000) group));
    allocation_free "non-evicting Cache.insert_cold_into" (fun i ->
        for j = 0 to 3 do
          group.(j + 1) <- (4 * i) + j
        done;
        ignore (Cache.insert_cold_into roomy group ~pos:1 ~len:4 admitted));
    allocation_free "Tracker.observe on a grown tracker" (fun i ->
        Tracker.observe tracker (i * 7 mod 1_000));
    allocation_free "unit-weight LRU Cache.access" (fun i ->
        ignore (Cache.access lru (i * 13 mod 1_500)));
    allocation_free "Sink.emit Sink.noop" (fun _ -> Sink.emit Sink.noop event);
    allocation_free "evicting miss on a full unit LRU" (fun i ->
        ignore (Cache.access full_lru (i land 2_047)));
    allocation_free "evicting miss on a full Clock" (fun i ->
        ignore (Cache.access full_clock (i land 2_047)));
    allocation_free "evicting miss on a full Random" (fun i ->
        ignore (Cache.access full_random (i land 2_047)));
    allocation_free "evicting miss on a weighted LRU, several victims" (fun i ->
        ignore (Cache.access full_weighted_lru (i land 2_047)));
    allocation_free "evicting Cache.insert_cold_into" (fun i ->
        for j = 0 to 3 do
          evicting_group.(j) <- ((4 * i) + j) land 4_095
        done;
        ignore (Cache.insert_cold_into full_roomy evicting_group ~pos:0 ~len:4 admitted));
    allocation_free "hit through Cache.of_policy (module Bundle)" (fun i ->
        ignore (Cache.access bundle (i land 1_023)));
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
   client crashes, and one node leaving and rejoining. Routes, groups and
   admissions go through caller-owned buffers, evictions build no list,
   latencies are tallied per distinct value and per-file state is keyed
   by the trace's dense keys. Successor regions fill fixed pages, so no
   per-run array doubles. What the first run allocates is set-up (the
   trace's key snapshot, with the raw-id pages of the interner that
   builds it, is the largest part), the state rebuilt at churn, and the
   floats the fault and cost models return across module boundaries
   (boxed under [-opaque]). A second run on the same trace reads the
   snapshot the first one left in it. *)
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
  let run () = words_per_access ~accesses:events (fun () -> Cluster.run config trace) in
  let r, minor, major = run () in
  Alcotest.(check int) "every access replayed" events r.Cluster.accesses;
  let r', _, warm = run () in
  Alcotest.(check bool) "the second run agrees" true (r' = r);
  (minor, major, warm)

let cluster_faults_run = lazy (cluster_faults_words ())

let test_cluster_words_per_access () =
  let words, _, _ = Lazy.force cluster_faults_run in
  if words > 3.3 then
    Alcotest.failf "Cluster.run allocates %.1f words per access (pin: at most 3.3)" words

let test_cluster_major_words_per_access () =
  let _, words, _ = Lazy.force cluster_faults_run in
  if words > 10.0 then
    Alcotest.failf "Cluster.run allocates %.1f major-heap words per access (pin: at most 10)"
      words

let test_cluster_warm_major_words_per_access () =
  let _, cold, warm = Lazy.force cluster_faults_run in
  if warm > cold -. 1.5 then
    Alcotest.failf
      "a second Cluster.run on the same trace allocates %.2f major-heap words per access, %.2f \
       below the first run's %.2f (pin: at least 1.5 below)"
      warm (cold -. warm) cold

(* The paper's two aggregating configurations on the write profile, the
   one with the widest id space per event: a g = 5 client of 300 files,
   then an LRU filter of 100 in front of a g = 5 server of 300. Each
   level keys its tables by dense keys, so only its interner's map pays
   for the id span, and its successor regions fill 512-slot pages. *)
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
  if words > 10.0 then
    Alcotest.failf
      "Client_cache and Server_cache allocate %.1f major-heap words per access (pin: at most 10)"
      words

(* The paper-g5 shape: over a 6k-event stream of each paper profile, a
   g = 5 client of 300 files, then an LRU filter of 100 in front of a
   g = 5 server of 300, each built afresh. The group and admitted
   buffers are per cache, evictions build no list and the engine emits
   [Group_built] itself, so no group build boxes an option; what is left
   is set-up, most of it the interners' raw-id pages and the successor
   regions' pages. Each stream touches 1.2k-2.9k distinct files with ids
   up to 9.7k-23.5k, so the major-heap pin catches per-run state that
   grows with the id space or by doubling. *)
let paper_g5_words () =
  let events = 6_000 in
  let streams =
    List.map
      (fun profile -> Agg_workload.Generator.generate_files ~seed:7 ~events profile)
      Agg_workload.Profile.all
  in
  let _, minor, major =
    words_per_access ~accesses:(2 * events * List.length streams) (fun () ->
        List.iter
          (fun files ->
            let client = Agg_core.Client_cache.create ~capacity:300 () in
            ignore (Agg_core.Client_cache.run_files client files);
            let path =
              Agg_core.Server_cache.create ~filter_kind:Cache.Lru ~filter_capacity:100
                ~server_capacity:300
                ~scheme:(Agg_core.Server_cache.Aggregating Agg_core.Config.default) ()
            in
            ignore (Agg_core.Server_cache.run_files path files))
          streams)
  in
  (minor, major)

let paper_g5_run = lazy (paper_g5_words ())

let test_client_server_words_per_access () =
  let words, _ = Lazy.force paper_g5_run in
  if words > 0.2 then
    Alcotest.failf
      "Client_cache and Server_cache allocate %.2f words per access (pin: at most 0.2)" words

let test_client_server_paper_major_words_per_access () =
  let _, words = Lazy.force paper_g5_run in
  if words > 6.5 then
    Alcotest.failf
      "Client_cache and Server_cache allocate %.1f major-heap words per access (pin: at most 6.5)"
      words

(* Landlord presizes its heap like every policy presizes its arrays:
   filling a 300-file cache allocates its five heap arrays and its size
   table once, at 300 entries. Grown by doubling from 16 they end at 512
   entries, and the copies of 256 or more go to the major heap too. A
   1000-file fill passes [Policy.presize]'s 512, so the heap and the
   size table double once; each doubled array is one allocation filled
   by a typed copy, with no temporary half to append. *)
let landlord_fill ~residents ~pin () =
  let module L = Agg_baselines.Landlord in
  let _, _, words =
    words_per_access ~accesses:residents (fun () ->
        let t = L.create ~capacity:residents in
        for k = 0 to residents - 1 do
          ignore (L.insert t ~pos:Agg_cache.Policy.Hot ~weight:Agg_cache.Policy.unit_weight k)
        done)
  in
  if words > pin then
    Alcotest.failf
      "filling a %d-file Landlord allocates %.1f major-heap words per resident (pin: at most %g)"
      residents words pin

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

(* The whole trace, set-up included: [generate] writes each event into
   the trace's presized columns (three 60k-word arrays and a 60k-byte
   string, all on the major heap), so no event is a block of its own.
   A boxed event was five minor words, each promoted with its trace. *)
let test_generate_trace_words_per_event () =
  let events = 60_000 in
  List.iter
    (fun (profile : Agg_workload.Profile.t) ->
      let trace, minor, major =
        words_per_access ~accesses:events (fun () ->
            Agg_workload.Generator.generate ~seed:7 ~events profile)
      in
      Alcotest.(check int) "every event generated" events (Agg_trace.Trace.length trace);
      if minor > 2.5 then
        Alcotest.failf "Generator.generate (%s) allocates %.1f words per event (pin: at most 2.5)"
          profile.name minor;
      if major > 4.5 then
        Alcotest.failf
          "Generator.generate (%s) allocates %.1f major-heap words per event (pin: at most 4.5)"
          profile.name major)
    Agg_workload.Profile.all

(* The codec over a 60k-event trace. A reader scans each line where it
   lies and pushes the event into the columns, so reading a string costs
   no word per line, and neither does reading a file, which scans its
   whole text the same way ([input_line] cost 9 words per line). A writer
   appends digits to a buffer. Splitting each line into a list and boxing
   an event cost 64 words per line, and [Printf] 94 per event. *)
let codec_trace =
  lazy (Agg_workload.Generator.generate ~seed:7 ~events:60_000 Agg_workload.Profile.server)

(* Minor words per event of [f input], where [input] is built from the
   trace before counting starts. *)
let codec_pin name ~per ~pin ~input f =
  Alcotest.test_case name `Quick (fun () ->
      let trace = Lazy.force codec_trace in
      input trace (fun x ->
          let _, words, _ =
            words_per_access ~accesses:(Agg_trace.Trace.length trace) (fun () -> f trace x)
          in
          if words > pin then
            Alcotest.failf "%s allocates %.2f minor words per %s (pin: at most %g)" name words per
              pin))

let temp_path k =
  let path = Filename.temp_file "alloc" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> k path)

let codec_pins =
  let module Codec = Agg_trace.Codec in
  let module Trace = Agg_trace.Trace in
  let same_length trace (read, _) = assert (Trace.length read = Trace.length trace) in
  [
    codec_pin "Codec.of_string_weighted" ~per:"line" ~pin:0.1
      ~input:(fun trace k -> k (Codec.to_string trace))
      (fun trace text -> same_length trace (Codec.of_string_weighted text));
    codec_pin "Codec.read_file_weighted" ~per:"line" ~pin:0.1
      ~input:(fun trace k ->
        temp_path (fun path ->
            Codec.write_file path trace;
            k path))
      (fun trace path -> same_length trace (Codec.read_file_weighted path));
    codec_pin "Codec.to_string" ~per:"event" ~pin:0.1
      ~input:(fun _ k -> k ())
      (fun trace () -> ignore (Sys.opaque_identity (Codec.to_string trace)));
    codec_pin "Codec.write_file" ~per:"event" ~pin:0.1 ~input:(fun _ k -> temp_path k)
      (fun trace path -> Codec.write_file path trace);
  ]

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
          Alcotest.test_case "Client_cache and Server_cache, paper-g5 shape" `Quick
            test_client_server_words_per_access;
          Alcotest.test_case "Client_cache and Server_cache major heap, paper-g5 shape" `Quick
            test_client_server_paper_major_words_per_access;
          Alcotest.test_case "Landlord major heap, 300 residents" `Quick
            (landlord_fill ~residents:300 ~pin:9.0);
          Alcotest.test_case "Landlord major heap, 1000 residents" `Quick
            (landlord_fill ~residents:1_000 ~pin:11.0);
          Alcotest.test_case "Cluster.run major heap, second run on one trace" `Quick
            test_cluster_warm_major_words_per_access;
        ] );
      ("codec", codec_pins);
      ( "per event",
        [
          Alcotest.test_case "Generator.generate_files, paper profiles" `Quick
            test_generate_words_per_event;
          Alcotest.test_case "Generator.generate, paper profiles" `Quick
            test_generate_trace_words_per_event;
        ] );
    ]
