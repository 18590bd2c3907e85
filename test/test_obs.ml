(* Tests for the instrumentation layer: counters and histograms (crafted
   semantics plus the merge algebra qcheck properties), event JSONL
   round-trips, sink behaviours, digest reconciliation against the
   simulator's aggregate metrics, and the sweep determinism regressions
   (identical event sequences for any --jobs, Noop vs Memory leaving
   figure numbers unchanged). *)

open Agg_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  n = 0 || loop 0

(* --- Counter ----------------------------------------------------------- *)

let test_counter_basics () =
  let c = Counter.create () in
  check_bool "fresh record is all zeros" true (Counter.diff c (Counter.create ()) = []);
  List.iter
    (Counter.observe c ~size:3 ~cost:5)
    [
      Event.Demand_hit { file = 1; depth = 0 };
      Event.Demand_miss { file = 2 };
      Event.Prefetch_issued { file = 4 };
      Event.Fetch_timeout { file = 2; attempt = 0 };
      Event.Fetch_timeout { file = 2; attempt = 1 };
      Event.Evicted { file = 4; speculative = true; age_accesses = 1 };
      Event.Node_routed { file = 2; node = 1 };
    ];
  check_int "hits" 1 c.demand_hits;
  check_int "misses" 1 c.demand_misses;
  check_int "accesses" 2 (Counter.accesses c);
  check_int "timeouts" 2 c.fetch_timeouts;
  check_int "only a re-issued attempt is a retry" 1 c.fetch_retries;
  check_int "speculative eviction" 1 c.evicted_speculative;
  check_int "node route" 1 c.node_routes;
  check_int "bytes accessed: hit and miss" 6 c.bytes_accessed;
  check_int "bytes hit" 3 c.bytes_hit;
  check_int "cost fetched: the miss" 5 c.cost_fetched;
  check_int "cost prefetched: the prefetch" 5 c.cost_prefetched;
  check_int "no event shows an unused eviction" 0 c.evicted_unused;
  Alcotest.(check (list (triple string int int)))
    "diff names each differing field, in order"
    [ ("demand_hits", 1, 0); ("bytes_hit", 3, 0) ]
    (Counter.diff c { c with demand_hits = 0; bytes_hit = 0 })

let test_counter_merge () =
  let a = Counter.create () and b = Counter.create () in
  a.demand_hits <- 3;
  b.demand_hits <- 4;
  b.cost_prefetched <- 2;
  let m = Counter.merge a b in
  check_int "merge sums" 7 m.demand_hits;
  check_int "merge sums every field" 2 m.cost_prefetched;
  (* merge is pure: the inputs are untouched *)
  check_int "a untouched" 3 a.demand_hits;
  check_int "b untouched" 4 b.demand_hits;
  Counter.add a b;
  check_int "add accumulates in place" 7 a.demand_hits;
  check_int "add leaves its argument alone" 4 b.demand_hits

(* --- Histogram --------------------------------------------------------- *)

let hist_of values =
  let h = Histogram.create () in
  List.iter (Histogram.add h) values;
  h

let hist_eq a b =
  Histogram.count a = Histogram.count b
  && Histogram.sum a = Histogram.sum b
  && Histogram.min_value a = Histogram.min_value b
  && Histogram.max_value a = Histogram.max_value b
  && Histogram.buckets a = Histogram.buckets b

let test_histogram_crafted () =
  let h = hist_of [ 0; 1; 1; 2; 3; 8; 100 ] in
  check_int "count" 7 (Histogram.count h);
  check_int "sum" 115 (Histogram.sum h);
  Alcotest.(check (option int)) "min" (Some 0) (Histogram.min_value h);
  Alcotest.(check (option int)) "max" (Some 100) (Histogram.max_value h);
  (* value 0 → bucket {0}; 1 → [1,1]; 2..3 → [2,3]; 8 → [8,15]; 100 → [64,127] *)
  Alcotest.(check (list (triple int int int)))
    "buckets"
    [ (0, 0, 1); (1, 1, 2); (2, 3, 2); (8, 15, 1); (64, 127, 1) ]
    (Histogram.buckets h);
  Alcotest.check_raises "negative value" (Invalid_argument "Histogram.add: negative value")
    (fun () -> Histogram.add h (-1))

let test_histogram_quantiles () =
  let h = Histogram.create () in
  Alcotest.(check (option int)) "empty" None (Histogram.quantile h 0.5);
  Histogram.add h 5;
  (* A single observation: every quantile is clamped to the observed max. *)
  Alcotest.(check (option int)) "single p0" (Some 5) (Histogram.quantile h 0.0);
  Alcotest.(check (option int)) "single p100" (Some 5) (Histogram.quantile h 1.0);
  let h = hist_of (List.init 100 (fun i -> i)) in
  check_bool "p50 <= p99" true (Histogram.quantile h 0.5 <= Histogram.quantile h 0.99);
  Alcotest.(check (option int)) "p100 = max" (Some 99) (Histogram.quantile h 1.0);
  Alcotest.check_raises "q out of range" (Invalid_argument "Histogram.quantile: q out of [0,1]")
    (fun () -> ignore (Histogram.quantile h 1.5))

let test_histogram_merge_pool () =
  (* Pool map-reduce over chunks must equal the sequential histogram. *)
  let values = List.init 2000 (fun i -> i * 37 mod 517) in
  let rec chunks n = function
    | [] -> []
    | l ->
        let rec take k acc = function
          | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let c, rest = take n [] l in
        c :: chunks n rest
  in
  let parts =
    Agg_util.Pool.map ~jobs:4 (fun chunk -> hist_of chunk) (chunks 123 values)
  in
  let merged = List.fold_left Histogram.merge (Histogram.create ()) parts in
  check_bool "pooled merge = sequential" true (hist_eq merged (hist_of values))

(* --- Event JSONL -------------------------------------------------------- *)

let event_equal (a : Event.t) (b : Event.t) = a = b

let test_event_json_roundtrip_crafted () =
  let events =
    [
      Event.Demand_hit { file = 3; depth = 0 };
      Event.Demand_miss { file = 12345 };
      Event.Prefetch_issued { file = 0 };
      Event.Prefetch_promoted { file = 9; lifetime = 42 };
      Event.Evicted { file = 7; speculative = true; age_accesses = 17 };
      Event.Evicted { file = 8; speculative = false; age_accesses = 0 };
      Event.Group_built { anchor = 4; size = 5 };
      Event.Successor_update { prev = 1; next = 2 };
      Event.Fetch_timeout { file = 11; attempt = 2 };
      Event.Fetch_degraded { file = 11; dropped = 4 };
      Event.Client_crashed { client = 3; wiped = 150 };
      Event.Node_routed { file = 21; node = 4 };
      Event.Replica_failover { file = 21; failed = 4; target = 0 };
      Event.Ring_rebalance { node = 5; joined = true; moved = 37 };
      Event.Ring_rebalance { node = 2; joined = false; moved = 0 };
    ]
  in
  List.iteri
    (fun seq ev ->
      match Event.of_json (Event.to_json ~seq ev) with
      | Ok (seq', ev') ->
          check_int "seq" seq seq';
          check_bool (Event.name ev ^ " round-trips") true (event_equal ev ev')
      | Error e -> Alcotest.failf "%s: %s" (Event.name ev) e)
    events

let test_event_json_errors () =
  let is_error s =
    match Event.of_json s with Ok _ -> false | Error _ -> true
  in
  check_bool "garbage" true (is_error "not json");
  check_bool "empty object" true (is_error "{}");
  check_bool "unknown tag" true (is_error {|{"seq":0,"ev":"warp_drive","file":1}|});
  check_bool "missing field" true (is_error {|{"seq":0,"ev":"demand_hit","file":1}|});
  check_bool "extra field" true
    (is_error {|{"seq":0,"ev":"demand_miss","file":1,"bogus":2}|});
  check_bool "bad seq" true (is_error {|{"seq":"x","ev":"demand_miss","file":1}|});
  check_bool "node_routed missing node" true (is_error {|{"seq":0,"ev":"node_routed","file":1}|});
  check_bool "ring_rebalance non-bool joined" true
    (is_error {|{"seq":0,"ev":"ring_rebalance","node":1,"joined":2,"moved":3}|})

(* --- Sinks -------------------------------------------------------------- *)

let test_sink_noop () =
  check_bool "disabled" false (Sink.enabled Sink.noop);
  Sink.emit Sink.noop (Event.Demand_miss { file = 1 });
  check_int "emitted" 0 (Sink.emitted Sink.noop);
  check_int "no events" 0 (List.length (Sink.events Sink.noop))

let test_sink_memory () =
  let s = Sink.memory () in
  check_bool "enabled" true (Sink.enabled s);
  let evs =
    [ Event.Demand_miss { file = 1 }; Event.Group_built { anchor = 1; size = 3 } ]
  in
  List.iter (Sink.emit s) evs;
  check_int "emitted" 2 (Sink.emitted s);
  check_bool "in order" true (Sink.events s = evs)

let test_sink_jsonl () =
  let path = Filename.temp_file "aggsim_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let s = Sink.jsonl oc in
      let evs =
        [
          Event.Demand_hit { file = 2; depth = 7 };
          Event.Evicted { file = 2; speculative = true; age_accesses = 3 };
        ]
      in
      List.iter (Sink.emit s) evs;
      Sink.flush s;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let parsed = List.rev_map Event.of_json !lines in
      check_int "two lines" 2 (List.length parsed);
      List.iteri
        (fun i -> function
          | Ok (seq, ev) ->
              check_int "seq stamped" i seq;
              check_bool "event survives" true (event_equal ev (List.nth evs i))
          | Error e -> Alcotest.fail e)
        parsed)

(* --- Digest ------------------------------------------------------------- *)

let test_digest_replay () =
  let d = Digest.create () in
  List.iter (Digest.observe d)
    [
      Event.Demand_miss { file = 1 };
      Event.Group_built { anchor = 1; size = 3 };
      Event.Prefetch_issued { file = 2 };
      Event.Prefetch_issued { file = 3 };
      Event.Demand_hit { file = 2; depth = 1 };
      Event.Prefetch_promoted { file = 2; lifetime = 1 };
      Event.Evicted { file = 3; speculative = true; age_accesses = 2 };
      (* the simulator notices the wasted prefetch of 3 only here: *)
      Event.Demand_miss { file = 3 };
      Event.Group_built { anchor = 3; size = 1 };
    ];
  let c = Digest.counts d in
  check_int "hits" 1 c.demand_hits;
  check_int "misses" 2 c.demand_misses;
  check_int "accesses" 3 (Counter.accesses c);
  check_int "issued" 2 c.prefetch_issued;
  check_int "promoted" 1 c.prefetch_promoted;
  check_int "evicted_speculative" 1 c.evicted_speculative;
  check_int "evicted_unused (lazy)" 1 c.evicted_unused;
  check_int "groups" 2 c.groups_built;
  check_int "lifetime samples" 2 (Histogram.count (Digest.lifetime d));
  check_int "group size samples" 2 (Histogram.count (Digest.group_size d))

let test_digest_weighted () =
  (* file f has size f, cost 2f; only demand/prefetch events move the
     byte and cost counters *)
  let d = Digest.create ~weight_of:(fun f -> (f, 2 * f)) () in
  List.iter (Digest.observe d)
    [
      Event.Demand_miss { file = 3 };
      Event.Prefetch_issued { file = 5 };
      Event.Demand_hit { file = 5; depth = 1 };
      Event.Demand_hit { file = 2; depth = 2 };
      Event.Evicted { file = 3; speculative = false; age_accesses = 1 };
    ];
  let c = Digest.counts d in
  check_int "bytes accessed = 3+5+2" 10 c.bytes_accessed;
  check_int "bytes hit = 5+2" 7 c.bytes_hit;
  check_int "cost fetched = 2*3" 6 c.cost_fetched;
  check_int "cost prefetched = 2*5" 10 c.cost_prefetched;
  check_int "total retrieval cost" 16 (Digest.total_retrieval_cost d);
  Alcotest.(check (float 1e-9)) "byte-weighted hit rate" 0.7 (Digest.byte_weighted_hit_rate d);
  (* unweighted digests mirror the counts *)
  let u =
    Digest.counts
      (Digest.of_events [ Event.Demand_miss { file = 3 }; Event.Demand_hit { file = 4; depth = 1 } ])
  in
  check_int "unit bytes = accesses" (Counter.accesses u) u.bytes_accessed;
  check_int "unit cost = misses" u.demand_misses u.cost_fetched

let server_profile () =
  match Agg_workload.Profile.by_name "server" with
  | Some p -> p
  | None -> Alcotest.fail "server profile missing"

let client_run ~obs =
  let trace = Agg_workload.Generator.generate ~seed:11 ~events:6_000 (server_profile ()) in
  let cache = Agg_core.Client_cache.create ~obs ~capacity:200 () in
  Agg_core.Client_cache.run cache trace

let test_reconcile_client () =
  let sink = Sink.memory () in
  let m = client_run ~obs:sink in
  let digest = Digest.of_events (Sink.events sink) in
  (match Agg_core.Metrics.reconcile_client digest m with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check_int "hits + fetches = accesses" m.Agg_core.Metrics.accesses
    (m.Agg_core.Metrics.hits + m.Agg_core.Metrics.demand_fetches)

let test_reconcile_server () =
  let trace = Agg_workload.Generator.generate ~seed:11 ~events:6_000 (server_profile ()) in
  List.iter
    (fun cooperative ->
      let sink = Sink.memory () in
      let sim =
        Agg_core.Server_cache.create ~cooperative ~obs:sink ~filter_kind:Agg_cache.Cache.Lru
          ~filter_capacity:150 ~server_capacity:300
          ~scheme:(Agg_core.Server_cache.Aggregating Agg_core.Config.default) ()
      in
      let m = Agg_core.Server_cache.run sim trace in
      let digest = Digest.of_events (Sink.events sink) in
      match Agg_core.Metrics.reconcile_server digest m with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "cooperative=%b: %s" cooperative msg)
    [ false; true ]

(* Dropping one event from a run's stream must fail its reconciliation
   and name the field that event's kind counts. *)
let test_reconcile_tampered () =
  let drop_first p events =
    let rec go = function [] -> [] | e :: rest -> if p e then rest else e :: go rest in
    go events
  in
  let tampered ~what reconcile events =
    List.iter
      (fun (field, p) ->
        match reconcile (Digest.of_events (drop_first p events)) with
        | Ok () -> Alcotest.failf "%s without one %s event reconciled" what field
        | Error msg ->
            check_bool (Printf.sprintf "%s error names %s" what field) true
              (contains ~needle:(field ^ ":") msg))
      [
        ("prefetch_promoted", function Event.Prefetch_promoted _ -> true | _ -> false);
        ("demand_misses", function Event.Demand_miss _ -> true | _ -> false);
      ]
  in
  let sink = Sink.memory () in
  let m = client_run ~obs:sink in
  tampered ~what:"client" (fun d -> Agg_core.Metrics.reconcile_client d m) (Sink.events sink);
  let trace = Agg_workload.Generator.generate ~seed:11 ~events:6_000 (server_profile ()) in
  let sink = Sink.memory () in
  let sim =
    Agg_core.Server_cache.create ~obs:sink ~filter_kind:Agg_cache.Cache.Lru ~filter_capacity:150
      ~server_capacity:300 ~scheme:(Agg_core.Server_cache.Aggregating Agg_core.Config.default) ()
  in
  let m = Agg_core.Server_cache.run sim trace in
  tampered ~what:"server" (fun d -> Agg_core.Metrics.reconcile_server d m) (Sink.events sink)

(* MD5 of the memory-sink event stream (one [Event.to_json] line per
   event, [seq] from 0) of every server scheme at both cooperation
   settings and of one aggregating client, all on one seeded trace. The
   reconcile tests compare counts; these pin the order of every event, so
   a reordered or extra one (a [Group_built] or [Successor_update] from a
   plain server, say) changes a hash. *)
let event_stream_known_answers =
  let open Agg_core in
  let g5 = Server_cache.Aggregating Config.default in
  let lru = Server_cache.Plain Agg_cache.Cache.Lru in
  let head = Server_cache.Aggregating { Config.default with member_position = Config.Head } in
  [
    ("server lru", Some (lru, false), "8e0767d264b11075c3f28d53625b175d");
    ("server lru cooperative", Some (lru, true), "8e0767d264b11075c3f28d53625b175d");
    ("server g5", Some (g5, false), "475605d5407640ae893e5a5511fb3179");
    ("server g5 cooperative", Some (g5, true), "7d5a0b3637a6ac42ef24e0e40034bf31");
    ("server g5 head", Some (head, false), "9a45f021b4c525e39177b964d3950fa0");
    ("server g5 head cooperative", Some (head, true), "56b8815b7e2188dec57441a4f9bc63d6");
    ("client g5", None, "01d3b1aebcc7b8428b181519ca1e1775");
  ]

let test_event_stream_known_answers () =
  let trace = Agg_workload.Generator.generate ~seed:11 ~events:6_000 (server_profile ()) in
  List.iter
    (fun (name, server, md5) ->
      let sink = Sink.memory () in
      (match server with
      | Some (scheme, cooperative) ->
          let sim =
            Agg_core.Server_cache.create ~cooperative ~obs:sink ~filter_kind:Agg_cache.Cache.Lru
              ~filter_capacity:100 ~server_capacity:150 ~scheme ()
          in
          ignore (Agg_core.Server_cache.run sim trace)
      | None ->
          let cache = Agg_core.Client_cache.create ~obs:sink ~capacity:150 () in
          ignore (Agg_core.Client_cache.run cache trace));
      let text = Buffer.create 65_536 in
      List.iteri
        (fun seq e ->
          Buffer.add_string text (Event.to_json ~seq e);
          Buffer.add_char text '\n')
        (Sink.events sink);
      Alcotest.(check string)
        name md5
        (Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents text))))
    event_stream_known_answers

let test_noop_identical_metrics () =
  let plain = client_run ~obs:Sink.noop in
  let sink = Sink.memory () in
  let instrumented = client_run ~obs:sink in
  check_bool "metrics unchanged by instrumentation" true (plain = instrumented);
  check_bool "events were recorded" true (Sink.emitted sink > 0)

(* --- sweep determinism --------------------------------------------------- *)

let fig3_with_sinks ~jobs =
  let settings = { Agg_sim.Experiment.quick_settings with Agg_sim.Experiment.jobs } in
  let group_sizes = [ 1; 5 ] and capacities = [ 100; 300 ] in
  let sinks = Hashtbl.create 8 in
  List.iter
    (fun g ->
      List.iter
        (fun c ->
          Hashtbl.replace sinks (g, c)
            (Printf.sprintf "fig3/server/g%d/c%d" g c, Sink.memory ()))
        capacities)
    group_sizes;
  (* the scope's sink_for is keyed by the cell's span label *)
  let sink_for ~label =
    let found = ref Sink.noop in
    Hashtbl.iter (fun _ (l, sink) -> if l = label then found := sink) sinks;
    !found
  in
  let runner =
    Agg_sim.Experiment.Runner.create
      ~scope:(Agg_obs.Scope.create ~sink_for ())
      ~settings ()
  in
  let panel = Agg_sim.Fig3.panel ~capacities ~group_sizes ~runner (server_profile ()) in
  let sinks = Hashtbl.fold (fun k (_, sink) acc -> (k, sink) :: acc) sinks [] in
  (panel, sinks)

let test_fig3_jobs_determinism () =
  let panel1, sinks1 = fig3_with_sinks ~jobs:1 in
  let panel4, sinks4 = fig3_with_sinks ~jobs:4 in
  check_bool "panel numbers identical" true (panel1 = panel4);
  List.iter
    (fun ((g, c), sink) ->
      let e1 = Sink.events sink and e4 = Sink.events (List.assoc (g, c) sinks4) in
      check_bool
        (Printf.sprintf "g%d/c%d event count > 0" g c)
        true (e1 <> []);
      check_bool
        (Printf.sprintf "g%d/c%d events identical for jobs 1 vs 4" g c)
        true (e1 = e4))
    sinks1

let test_fig3_noop_vs_memory () =
  let settings = Agg_sim.Experiment.quick_settings in
  let capacities = [ 100; 300 ] and group_sizes = [ 1; 5 ] in
  let noop_panel =
    Agg_sim.Fig3.panel ~capacities ~group_sizes
      ~runner:(Agg_sim.Experiment.Runner.create ~settings ())
      (server_profile ())
  in
  let memory_panel, _ = fig3_with_sinks ~jobs:2 in
  check_bool "Noop vs Memory leave figure numbers unchanged" true (noop_panel = memory_panel)

(* --- Span ---------------------------------------------------------------- *)

let test_span_record () =
  let r = Span.recorder () in
  let x = Span.record r ~cat:"test" "outer" (fun () -> Span.record r "inner" (fun () -> 41) + 1) in
  check_int "result passed through" 42 x;
  check_int "both spans recorded" 2 (Span.count r);
  (try Span.record r "raises" (fun () -> failwith "boom") with Failure _ -> 0) |> ignore;
  check_int "span recorded on raise" 3 (Span.count r);
  List.iter
    (fun (s : Span.span) -> check_bool (s.Span.name ^ " duration >= 0") true (Span.seconds_of s >= 0.0))
    (Span.spans r);
  check_bool "total >= 0" true (Span.total_seconds r >= 0.0)

let test_span_chrome_json () =
  let r = Span.recorder () in
  Span.record r ~cat:"sec\"tion" "na\\me" (fun () -> ()) |> ignore;
  let json = Span.chrome_json r in
  check_bool "has traceEvents" true (contains ~needle:"\"traceEvents\"" json);
  check_bool "has complete-event ph" true (contains ~needle:"\"X\"" json);
  check_bool "escapes quotes" true (contains ~needle:"sec\\\"tion" json)

(* --- histogram quantile edge cases ----------------------------------------- *)

let check_opt_int = Alcotest.(check (option int))

let test_histogram_quantile_edges () =
  let empty = Histogram.create () in
  List.iter (fun q -> check_opt_int "empty histogram" None (Histogram.quantile empty q))
    [ 0.0; 0.5; 1.0 ];
  let zero = hist_of [ 0 ] in
  List.iter (fun q -> check_opt_int "only the value 0" (Some 0) (Histogram.quantile zero q))
    [ 0.0; 0.5; 1.0 ];
  (* one observation: every quantile is that observation, not its
     bucket's upper bound (5 lands in [4..7], clamped to max 5) *)
  let single = hist_of [ 5 ] in
  List.iter (fun q -> check_opt_int "single observation" (Some 5) (Histogram.quantile single q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (* all mass in one bucket [4..7]: every quantile reports the bucket's
     upper bound clamped to the observed maximum — 7 here, even at q=0 *)
  let one_bucket = hist_of [ 5; 6; 7 ] in
  List.iter (fun q -> check_opt_int "one-bucket mass" (Some 7) (Histogram.quantile one_bucket q))
    [ 0.0; 0.5; 1.0 ];
  check_bool "q > 1 raises" true
    (match Histogram.quantile single 1.5 with exception Invalid_argument _ -> true | _ -> false);
  check_bool "q < 0 raises" true
    (match Histogram.quantile single (-0.1) with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* --- buffered jsonl bytes --------------------------------------------------- *)

let test_sink_jsonl_bytes () =
  (* enough events to overflow the 64 KiB write buffer several times, so
     this also pins that buffering does not reorder, drop or reframe
     lines: the file must be byte-identical to line-at-a-time output *)
  let events =
    List.init 4_000 (fun i ->
        if i mod 2 = 0 then Event.Demand_hit { file = i; depth = i mod 7 }
        else Event.Demand_miss { file = i })
  in
  let path = Filename.temp_file "aggsim_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let s = Sink.jsonl oc in
      List.iter (Sink.emit s) events;
      Sink.flush s;
      close_out oc;
      let actual = In_channel.with_open_bin path In_channel.input_all in
      let expected =
        String.concat "" (List.mapi (fun i e -> Event.to_json ~seq:i e ^ "\n") events)
      in
      check_bool "buffered output byte-identical to unbuffered lines" true (actual = expected);
      check_int "emitted" (List.length events) (Sink.emitted s))

(* --- sampled sink ------------------------------------------------------------ *)

let test_sink_sampled () =
  let events = List.init 2_000 (fun i -> Event.Demand_miss { file = i }) in
  let keep seed rate =
    let s = Sink.sampled ~seed ~rate (Sink.memory ()) in
    List.iter (Sink.emit s) events;
    (Sink.events s, Sink.offered s, Sink.emitted s)
  in
  let e1, off1, n1 = keep 7 0.25 in
  let e2, _, _ = keep 7 0.25 in
  check_bool "deterministic for a fixed seed" true (e1 = e2);
  check_int "offered counts every event" 2_000 off1;
  check_int "emitted is the kept count" (List.length e1) n1;
  check_bool "rate 0.25 keeps a strict subset" true (n1 > 0 && n1 < 2_000);
  let e3, _, _ = keep 8 0.25 in
  check_bool "the seed changes the sample" true (e1 <> e3);
  let full, _, nfull = keep 7 1.0 in
  check_int "rate 1 keeps everything" 2_000 nfull;
  check_bool "rate 1 preserves order" true (full = events);
  check_bool "sampled around noop stays disabled" false
    (Sink.enabled (Sink.sampled ~seed:7 ~rate:0.5 Sink.noop));
  check_bool "rate 0 rejected" true
    (match Sink.sampled ~seed:7 ~rate:0.0 Sink.noop with
     | exception Invalid_argument _ -> true
     | _ -> false);
  check_bool "rate > 1 rejected" true
    (match Sink.sampled ~seed:7 ~rate:1.5 Sink.noop with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* --- request-lifecycle tracing ----------------------------------------------- *)

let test_trace_ctx_crafted () =
  let ctx = Trace_ctx.create ~seed:42 () in
  check_bool "sample 1 traces every request" true (Trace_ctx.sampled ctx ~request:0);
  Trace_ctx.push ctx ~cat:"hit" "client hit" ~dur_ms:0.05;
  Trace_ctx.commit ctx ~request:0 ~file:9 ~latency_ms:0.05;
  Trace_ctx.push ctx ~cat:"timeout" "attempt0" ~dur_ms:5.0;
  Trace_ctx.push ctx ~cat:"backoff" "backoff1" ~dur_ms:1.0;
  Trace_ctx.push ctx ~cat:"fetch" "fetch f3" ~dur_ms:4.0;
  Trace_ctx.commit ctx ~request:1 ~file:3 ~latency_ms:10.0;
  check_int "sampled requests" 2 (Trace_ctx.sampled_requests ctx);
  let spans = Trace_ctx.spans ctx in
  check_int "two roots plus four phases" 6 (List.length spans);
  let root1 =
    List.find (fun s -> s.Trace_ctx.depth = 0 && s.Trace_ctx.request = 1) spans
  in
  check_int "root sits at the prior request's latency" 50 root1.Trace_ctx.start_us;
  check_int "root spans the whole request" 10_000 root1.Trace_ctx.dur_us;
  check_bool "root category" true (root1.Trace_ctx.span_cat = "request");
  (match List.filter (fun s -> s.Trace_ctx.request = 1 && s.Trace_ctx.depth = 1) spans with
  | [ a; b; c ] ->
      check_int "phase 1 starts at the root" 50 a.Trace_ctx.start_us;
      check_int "phase 2 follows phase 1" 5_050 b.Trace_ctx.start_us;
      check_int "phase 3 follows phase 2" 6_050 c.Trace_ctx.start_us;
      check_int "phase 3 duration" 4_000 c.Trace_ctx.dur_us;
      check_bool "phases share the root's trace id" true
        (a.Trace_ctx.span_trace_id = root1.Trace_ctx.span_trace_id
        && c.Trace_ctx.span_trace_id = root1.Trace_ctx.span_trace_id)
  | _ -> Alcotest.fail "expected exactly 3 phases for request 1");
  Alcotest.(check (list (pair string (float 1e-9))))
    "attribution is per-category ms, descending, roots excluded"
    [ ("timeout", 5.0); ("fetch", 4.0); ("backoff", 1.0); ("hit", 0.05) ]
    (Trace_ctx.attribution ctx);
  let json = Trace_ctx.chrome_json ctx in
  check_bool "chrome json has traceEvents" true (contains ~needle:"\"traceEvents\"" json);
  check_bool "chrome json carries the file id" true (contains ~needle:"\"file\": 3" json)

let test_trace_ctx_sampling_determinism () =
  let picks ctx = List.init 500 (fun i -> Trace_ctx.sampled ctx ~request:i) in
  let a = Trace_ctx.create ~sample:0.2 ~seed:9 () in
  let b = Trace_ctx.create ~sample:0.2 ~seed:9 () in
  check_bool "sampling is pure in (seed, request)" true (picks a = picks b);
  let kept = List.length (List.filter Fun.id (picks a)) in
  check_bool "sampling rate is respected" true (kept > 50 && kept < 150);
  check_bool "trace ids are pure in (seed, request)" true
    (List.init 100 (fun i -> Trace_ctx.trace_id a ~request:i)
    = List.init 100 (fun i -> Trace_ctx.trace_id b ~request:i));
  let c = Trace_ctx.create ~sample:0.2 ~seed:10 () in
  check_bool "the seed changes the sample" true (picks a <> picks c);
  (* unsampled requests discard their pushes but still advance the clock *)
  let d = Trace_ctx.create ~sample:1.0 ~seed:3 () in
  Trace_ctx.commit d ~request:0 ~file:1 ~latency_ms:2.0;
  Trace_ctx.push d ~cat:"fetch" "fetch" ~dur_ms:1.0;
  Trace_ctx.commit d ~request:1 ~file:2 ~latency_ms:1.0;
  let r1 = List.find (fun s -> s.Trace_ctx.request = 1 && s.Trace_ctx.depth = 0) (Trace_ctx.spans d) in
  check_int "clock advanced by every committed latency" 2_000 r1.Trace_ctx.start_us;
  check_bool "sample 0 rejected" true
    (match Trace_ctx.create ~sample:0.0 ~seed:1 () with
     | exception Invalid_argument _ -> true
     | _ -> false);
  check_bool "negative request rejected" true
    (match Trace_ctx.sampled a ~request:(-1) with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* --- windowed series --------------------------------------------------------- *)

let series_eq a b =
  Series.to_json a = Series.to_json b && Series.to_prometheus a = Series.to_prometheus b

(* One deterministic observation per (index, k) pair; shared by the
   crafted shard test and the merge-algebra properties. *)
let series_apply s (i, k) =
  match k mod 5 with
  | 0 -> Series.observe_access s ~index:i ~hit:(k mod 2 = 0)
  | 1 -> Series.observe_latency s ~index:i ~us:(k * 37 mod 5_000)
  | 2 -> Series.observe_degraded s ~index:i
  | 3 -> Series.observe_eviction s ~index:i ~speculative:(k mod 3 = 0)
  | _ -> Series.observe_node s ~index:i ~node:(k mod 7)

let test_series_crafted () =
  let s = Series.create ~window:4 in
  check_int "no windows before any observation" 0 (Series.windows s);
  Series.observe_access s ~index:0 ~hit:true;
  Series.observe_access s ~index:1 ~hit:false;
  Series.observe_latency s ~index:1 ~us:900;
  Series.observe_degraded s ~index:1;
  Series.observe_node s ~index:1 ~node:2;
  Series.observe_access s ~index:9 ~hit:false;
  Series.observe_eviction s ~index:9 ~speculative:true;
  Series.observe_eviction s ~index:9 ~speculative:false;
  check_int "windows reach the highest observed index" 3 (Series.windows s);
  let w0 = Series.counts s 0 in
  check_int "w0 accesses" 2 (Counter.accesses w0);
  check_int "w0 hits" 1 w0.demand_hits;
  check_int "w0 degraded" 1 w0.degraded_fetches;
  check_int "w0 node route" 1 w0.node_routes;
  Alcotest.(check (float 1e-9)) "w0 hit rate (percent)" 50.0 (Series.hit_rate s 0);
  Alcotest.(check (float 1e-9)) "w0 degraded rate (percent)" 50.0 (Series.degraded_rate s 0);
  check_opt_int "w0 latency quantile clamps to the observed max" (Some 900)
    (Series.latency_quantile s 0 0.99);
  check_bool "skipped window exists and is empty" true
    (Counter.diff (Series.counts s 1) (Counter.create ()) = []);
  Alcotest.(check (float 1e-9)) "empty window rates are 0" 0.0 (Series.hit_rate s 1);
  check_opt_int "empty window has no latency" None (Series.latency_quantile s 1 0.5);
  check_int "speculative evictions count apart" 1 (Series.counts s 2).evicted_speculative;
  check_int "demand evictions count apart" 1 (Series.counts s 2).evicted_demand;
  Alcotest.(check (list (pair int int))) "w0 node loads" [ (2, 1) ] (Series.node_loads s 0);
  Alcotest.(check (float 1e-9))
    "imbalance over nodes 0..2: loads [0;0;1], max/mean = 3" 3.0
    (Series.load_imbalance ~nodes:3 s 0);
  Alcotest.(check (float 1e-9)) "no load means imbalance 0" 0.0 (Series.load_imbalance s 2);
  let totals = Series.totals s in
  check_int "total accesses" 3 (Counter.accesses totals);
  check_int "total hits" 1 totals.demand_hits;
  check_int "total degraded" 1 totals.degraded_fetches;
  check_int "total speculative evictions" 1 totals.evicted_speculative;
  check_int "total latency gathers every sample" 1 (Histogram.count (Series.total_latency s));
  check_bool "accessor out of range raises" true
    (match Series.counts s 3 with exception Invalid_argument _ -> true | _ -> false);
  check_bool "negative index raises" true
    (match Series.observe_access s ~index:(-1) ~hit:true with
     | exception Invalid_argument _ -> true
     | _ -> false);
  check_bool "non-positive window raises" true
    (match Series.create ~window:0 with exception Invalid_argument _ -> true | _ -> false)

let test_series_shard_merge_bytes () =
  (* the Pool-shard discipline: four workers each see a quarter of the
     observations (keyed by global access index); their merge must be
     byte-identical to the single-series run, whatever the merge shape *)
  let obs = List.init 3_000 (fun k -> (k * 13 mod 2_500, k)) in
  let whole = Series.create ~window:250 in
  List.iter (series_apply whole) obs;
  let shard p =
    let s = Series.create ~window:250 in
    List.iteri (fun j o -> if j mod 4 = p then series_apply s o) obs;
    s
  in
  let merged =
    Series.merge (Series.merge (shard 0) (shard 1)) (Series.merge (shard 2) (shard 3))
  in
  check_bool "4-shard merge byte-identical to the whole run" true (series_eq whole merged);
  let merged_rev =
    Series.merge (Series.merge (shard 3) (shard 2)) (Series.merge (shard 1) (shard 0))
  in
  check_bool "merge shape does not change the bytes" true (series_eq merged merged_rev);
  check_bool "mismatched windows refuse to merge" true
    (match Series.merge whole (Series.create ~window:100) with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_series_weighted () =
  let s = Series.create ~window:4 in
  Series.observe_access s ~index:0 ~hit:true;
  (* exporters stay in the pre-weights format until the first weighted
     observation *)
  check_bool "json has no weighted fields" false
    (contains ~needle:"bytes_accessed" (Series.to_json s));
  check_bool "prometheus has no weighted gauges" false
    (contains ~needle:"byte_hit_rate" (Series.to_prometheus s));
  Series.observe_weighted s ~index:0 ~size:3 ~cost:5 ~hit:true;
  Series.observe_weighted s ~index:5 ~size:2 ~cost:7 ~hit:false;
  let w0 = Series.counts s 0 in
  check_int "w0 bytes accessed" 3 w0.bytes_accessed;
  check_int "w0 bytes hit" 3 w0.bytes_hit;
  check_int "w0 cost fetched (hits fetch nothing)" 0 w0.cost_fetched;
  check_int "w1 cost fetched" 7 (Series.counts s 1).cost_fetched;
  Alcotest.(check (float 1e-9)) "w0 byte hit rate (percent)" 100.0 (Series.byte_hit_rate s 0);
  Alcotest.(check (float 1e-9)) "w1 byte hit rate (percent)" 0.0 (Series.byte_hit_rate s 1);
  check_bool "json gains weighted fields" true
    (contains ~needle:"\"bytes_accessed\": 3" (Series.to_json s));
  check_bool "prometheus gains weighted gauges" true
    (contains ~needle:"byte_hit_rate" (Series.to_prometheus s));
  (* weightedness survives a merge with an unweighted shard *)
  check_bool "merge keeps weighted fields" true
    (contains ~needle:"bytes_accessed" (Series.to_json (Series.merge s (Series.create ~window:4))));
  check_bool "non-positive size raises" true
    (match Series.observe_weighted s ~index:0 ~size:0 ~cost:1 ~hit:true with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* The fields a series window fed by events records; the others stay
   zero. *)
let window_fields (c : Counter.t) =
  {
    (Counter.create ()) with
    demand_hits = c.demand_hits;
    demand_misses = c.demand_misses;
    degraded_fetches = c.degraded_fetches;
    evicted_speculative = c.evicted_speculative;
    evicted_demand = c.evicted_demand;
    node_routes = c.node_routes;
  }

let test_series_reconciles_digest () =
  let sink = Sink.memory () in
  let m = client_run ~obs:sink in
  let events = Sink.events sink in
  let digest = Digest.of_events events in
  let series = Series.of_events ~window:500 events in
  let totals = Series.totals series in
  Alcotest.(check (list (triple string int int)))
    "totals are the digest's record on the window fields" []
    (Counter.diff (window_fields (Digest.counts digest)) totals);
  check_int "run accesses" m.Agg_core.Metrics.accesses (Counter.accesses totals);
  check_int "one window per 500 accesses" 12 (Series.windows series);
  let sum f =
    let t = ref 0 in
    for w = 0 to Series.windows series - 1 do
      t := !t + f (Series.counts series w)
    done;
    !t
  in
  check_int "window accesses sum to the total" (Counter.accesses totals) (sum Counter.accesses);
  check_int "window churn sums to the total" totals.evicted_speculative
    (sum (fun c -> c.evicted_speculative))

(* --- qcheck properties ---------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  let values_gen = list_of_size (Gen.int_range 0 200) (int_range 0 100_000) in
  let event_gen =
    let open Gen in
    let file = int_range 0 10_000 in
    oneof
      [
        map2 (fun f d -> Event.Demand_hit { file = f; depth = d }) file (int_range 0 1000);
        map (fun f -> Event.Demand_miss { file = f }) file;
        map (fun f -> Event.Prefetch_issued { file = f }) file;
        map2 (fun f l -> Event.Prefetch_promoted { file = f; lifetime = l }) file (int_range 0 1000);
        map3
          (fun f s a -> Event.Evicted { file = f; speculative = s; age_accesses = a })
          file bool (int_range 0 1000);
        map2 (fun a s -> Event.Group_built { anchor = a; size = s }) file (int_range 1 20);
        map2 (fun p n -> Event.Successor_update { prev = p; next = n }) file file;
        map2 (fun f a -> Event.Fetch_timeout { file = f; attempt = a }) file (int_range 0 10);
        map2 (fun f d -> Event.Fetch_degraded { file = f; dropped = d }) file (int_range 0 20);
        map2 (fun c w -> Event.Client_crashed { client = c; wiped = w }) (int_range 0 64)
          (int_range 0 1000);
        map2 (fun f n -> Event.Node_routed { file = f; node = n }) file (int_range 0 64);
        map3
          (fun f a b -> Event.Replica_failover { file = f; failed = a; target = b })
          file (int_range 0 64) (int_range 0 64);
        map3
          (fun n j m -> Event.Ring_rebalance { node = n; joined = j; moved = m })
          (int_range 0 64) bool (int_range 0 1000);
      ]
  in
  let event_arb = make ~print:(Format.asprintf "%a" Event.pp) event_gen in
  [
    (* records from weighted event streams, so every field (the replayed
       evicted_unused and the byte and cost sums included) can be non-zero *)
    (let counts events =
       Digest.counts (Digest.of_events ~weight_of:(fun f -> ((f mod 7) + 1, (f mod 5) + 1)) events)
     in
     Test.make ~name:"counter merge is commutative and associative" ~count:200
       (triple (list event_arb) (list event_arb) (list event_arb))
       (fun (xs, ys, zs) ->
         let a = counts xs and b = counts ys and c = counts zs in
         Counter.merge a b = Counter.merge b a
         && Counter.merge (Counter.merge a b) c = Counter.merge a (Counter.merge b c)
         && Counter.merge a (Counter.create ()) = a));
    Test.make ~name:"digest counts equal series totals on the window fields" ~count:200
      (pair (int_range 1 20) (list event_arb))
      (fun (window, events) ->
        window_fields (Digest.counts (Digest.of_events events))
        = Series.totals (Series.of_events ~window events));
    Test.make ~name:"histogram merge is commutative with create identity" ~count:100
      (pair values_gen values_gen)
      (fun (xs, ys) ->
        let a = hist_of xs and b = hist_of ys in
        hist_eq (Histogram.merge a b) (Histogram.merge b a)
        && hist_eq (Histogram.merge a (Histogram.create ())) a);
    Test.make ~name:"histogram merge is associative" ~count:100
      (triple values_gen values_gen values_gen)
      (fun (xs, ys, zs) ->
        let a = hist_of xs and b = hist_of ys and c = hist_of zs in
        hist_eq
          (Histogram.merge (Histogram.merge a b) c)
          (Histogram.merge a (Histogram.merge b c)));
    Test.make ~name:"histogram merge equals histogram of concatenation" ~count:100
      (pair values_gen values_gen)
      (fun (xs, ys) -> hist_eq (Histogram.merge (hist_of xs) (hist_of ys)) (hist_of (xs @ ys)));
    Test.make ~name:"quantiles are monotone in q" ~count:200
      (triple values_gen (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
      (fun (xs, q1, q2) ->
        let h = hist_of xs in
        let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
        match (Histogram.quantile h lo, Histogram.quantile h hi) with
        | Some a, Some b -> a <= b
        | None, None -> xs = []
        | _ -> false);
    Test.make ~name:"quantiles stay within observed extremes" ~count:200
      (pair values_gen (float_bound_inclusive 1.0))
      (fun (xs, q) ->
        match (hist_of xs, xs) with
        | h, _ :: _ ->
            let v = Option.get (Histogram.quantile h q) in
            Option.get (Histogram.min_value h) <= v
            && v <= Option.get (Histogram.max_value h)
        | h, [] -> Histogram.quantile h q = None);
    Test.make ~name:"event JSONL round-trips" ~count:500
      (pair (make Gen.small_nat) event_arb)
      (fun (seq, ev) ->
        match Event.of_json (Event.to_json ~seq ev) with
        | Ok (seq', ev') -> seq = seq' && event_equal ev ev'
        | Error _ -> false);
    (let obs_list =
       list_of_size (Gen.int_range 0 150) (pair (int_range 0 999) (int_range 0 10_000))
     in
     let series_of obs =
       let s = Series.create ~window:100 in
       List.iter (series_apply s) obs;
       s
     in
     Test.make ~name:"series merge is associative and commutative with create identity" ~count:100
       (triple obs_list obs_list obs_list)
       (fun (xs, ys, zs) ->
         let a = series_of xs and b = series_of ys and c = series_of zs in
         series_eq (Series.merge a b) (Series.merge b a)
         && series_eq (Series.merge (Series.merge a b) c) (Series.merge a (Series.merge b c))
         && series_eq (Series.merge a (Series.create ~window:100)) a));
    Test.make ~name:"series window sums equal the totals" ~count:100
      (list_of_size (Gen.int_range 0 200) (pair (int_range 0 2_000) (int_range 0 10_000)))
      (fun obs ->
        let s = Series.create ~window:128 in
        List.iter (series_apply s) obs;
        let sum f =
          let t = ref 0 in
          for w = 0 to Series.windows s - 1 do
            t := !t + f (Series.counts s w)
          done;
          !t
        in
        let totals = Series.totals s in
        sum Counter.accesses = Counter.accesses totals
        && sum (fun c -> c.demand_hits) = totals.demand_hits
        && sum (fun c -> c.degraded_fetches) = totals.degraded_fetches
        && sum (fun c -> c.evicted_speculative) = totals.evicted_speculative
        && sum (fun c -> c.node_routes) = totals.node_routes);
  ]

let () =
  Alcotest.run "agg_obs"
    [
      ( "counter",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "merge" `Quick test_counter_merge;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "crafted buckets" `Quick test_histogram_crafted;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "quantile edge cases" `Quick test_histogram_quantile_edges;
          Alcotest.test_case "pool merge" `Quick test_histogram_merge_pool;
        ] );
      ( "event-json",
        [
          Alcotest.test_case "round-trip crafted" `Quick test_event_json_roundtrip_crafted;
          Alcotest.test_case "malformed lines" `Quick test_event_json_errors;
        ] );
      ( "sink",
        [
          Alcotest.test_case "noop" `Quick test_sink_noop;
          Alcotest.test_case "memory" `Quick test_sink_memory;
          Alcotest.test_case "jsonl" `Quick test_sink_jsonl;
          Alcotest.test_case "jsonl buffered bytes" `Quick test_sink_jsonl_bytes;
          Alcotest.test_case "sampled" `Quick test_sink_sampled;
        ] );
      ( "digest",
        [
          Alcotest.test_case "crafted replay" `Quick test_digest_replay;
          Alcotest.test_case "reconciles client run" `Quick test_reconcile_client;
          Alcotest.test_case "reconciles server run" `Quick test_reconcile_server;
          Alcotest.test_case "tampered streams name the field" `Quick test_reconcile_tampered;
          Alcotest.test_case "noop leaves metrics identical" `Quick test_noop_identical_metrics;
          Alcotest.test_case "weighted counters" `Quick test_digest_weighted;
          Alcotest.test_case "event stream known answers" `Quick test_event_stream_known_answers;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig3 events, jobs 1 vs 4" `Quick test_fig3_jobs_determinism;
          Alcotest.test_case "fig3 noop vs memory" `Quick test_fig3_noop_vs_memory;
        ] );
      ( "span",
        [
          Alcotest.test_case "record" `Quick test_span_record;
          Alcotest.test_case "chrome json" `Quick test_span_chrome_json;
        ] );
      ( "trace-ctx",
        [
          Alcotest.test_case "crafted span trees" `Quick test_trace_ctx_crafted;
          Alcotest.test_case "sampling determinism" `Quick test_trace_ctx_sampling_determinism;
        ] );
      ( "series",
        [
          Alcotest.test_case "crafted windows" `Quick test_series_crafted;
          Alcotest.test_case "shard merge bytes" `Quick test_series_shard_merge_bytes;
          Alcotest.test_case "reconciles digest totals" `Quick test_series_reconciles_digest;
          Alcotest.test_case "weighted windows and export gating" `Quick test_series_weighted;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
