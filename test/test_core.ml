(* Tests for the paper's core contribution: configuration, group
   construction, and the aggregating client and server caches. The
   strongest invariant — an aggregating cache with group size 1 is
   *exactly* a plain demand cache — is checked both on crafted traces and
   on generated workloads. *)

open Agg_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

(* --- Config -------------------------------------------------------------- *)

let test_config_defaults () =
  let c = Config.default in
  check_int "group size" 5 c.Config.group_size;
  check_int "successor capacity" 8 c.Config.successor_capacity;
  check_bool "recency metadata" true (c.Config.metadata_policy = Agg_successor.Successor_list.Recency);
  check_bool "tail members" true (c.Config.member_position = Config.Tail);
  Config.validate c

let test_config_validation () =
  Alcotest.check_raises "group 0" (Invalid_argument "Config: group_size must be positive")
    (fun () -> ignore (Config.with_group_size 0 Config.default));
  Alcotest.check_raises "succ cap 0"
    (Invalid_argument "Config: successor_capacity must be positive") (fun () ->
      Config.validate { Config.default with successor_capacity = 0 })

(* --- Group_builder --------------------------------------------------------- *)

let tracker_of_runs runs =
  let t = Agg_successor.Tracker.create () in
  List.iter (fun run -> List.iter (fun f -> Agg_successor.Tracker.observe t f) run) runs;
  t

let test_builder_group_of_one () =
  let t = tracker_of_runs [ [ 1; 2; 3 ] ] in
  check_list "just the file" [ 1 ] (Group_builder.build t ~group_size:1 1)

let test_builder_small_groups_use_immediate () =
  (* 1 is followed by 2 (older) and 9 (most recent): recency ranks 9 first *)
  let t = tracker_of_runs [ [ 1; 2 ]; [ 1; 9 ] ] in
  check_list "g2 takes most recent" [ 1; 9 ] (Group_builder.build t ~group_size:2 1);
  check_list "g3 takes both" [ 1; 9; 2 ] (Group_builder.build t ~group_size:3 1)

let test_builder_large_groups_chain () =
  let t = tracker_of_runs [ [ 1; 2; 3; 4; 5; 6 ] ] in
  check_list "transitive chain" [ 1; 2; 3; 4; 5 ] (Group_builder.build t ~group_size:5 1)

let test_builder_chain_fallback () =
  (* chain 1 -> 2 -> 3 stalls at 3 (no successor); the builder falls back
     to the next-ranked successor of a chain member *)
  let t = tracker_of_runs [ [ 1; 7 ]; [ 1; 2; 3 ] ] in
  (* successors: 1 -> [2 (recent); 7], 2 -> [3] *)
  let group = Group_builder.build t ~group_size:5 1 in
  check_bool "contains chain" true (List.mem 2 group && List.mem 3 group);
  check_bool "fallback picks 7" true (List.mem 7 group)

let test_builder_no_metadata () =
  let t = Agg_successor.Tracker.create () in
  check_list "unknown file alone" [ 42 ] (Group_builder.build t ~group_size:5 42)

let test_builder_never_duplicates () =
  let t = tracker_of_runs [ [ 1; 2; 1; 2; 1; 3 ] ] in
  let group = Group_builder.build t ~group_size:6 1 in
  check_int "no duplicates" (List.length group) (List.length (List.sort_uniq compare group));
  check_bool "requested not repeated" true (List.length (List.filter (( = ) 1) group) = 1)

let test_builder_invalid () =
  let t = Agg_successor.Tracker.create () in
  Alcotest.check_raises "size 0"
    (Invalid_argument "Group_builder.build: group_size must be positive") (fun () ->
      ignore (Group_builder.build t ~group_size:0 1))

(* --- Client_cache ------------------------------------------------------------ *)

let run_client ?(config = Config.default) ~capacity files =
  let cache = Client_cache.create ~config ~capacity () in
  Array.iter (fun f -> ignore (Client_cache.access cache f)) files;
  Client_cache.metrics cache

let lru_misses ~capacity files =
  let cache = Agg_cache.Cache.create Agg_cache.Cache.Lru ~capacity in
  Array.fold_left (fun acc f -> if Agg_cache.Cache.access cache f then acc else acc + 1) 0 files

let test_client_g1_equals_lru_crafted () =
  let files = [| 1; 2; 3; 1; 2; 4; 1; 5; 2; 3 |] in
  let config = Config.with_group_size 1 Config.default in
  let m = run_client ~config ~capacity:3 files in
  check_int "demand fetches equal lru misses" (lru_misses ~capacity:3 files) m.Metrics.demand_fetches;
  check_int "no prefetches" 0 m.Metrics.prefetch.Metrics.issued

let test_client_g1_equals_lru_generated () =
  let files = Agg_workload.Generator.generate_files ~seed:3 ~events:8000 Agg_workload.Profile.server in
  List.iter
    (fun capacity ->
      let config = Config.with_group_size 1 Config.default in
      let m = run_client ~config ~capacity files in
      check_int
        (Printf.sprintf "capacity %d" capacity)
        (lru_misses ~capacity files) m.Metrics.demand_fetches)
    [ 10; 50; 200 ]

let test_client_metric_identities () =
  let files = Agg_workload.Generator.generate_files ~seed:5 ~events:5000 Agg_workload.Profile.server in
  let m = run_client ~capacity:200 files in
  check_int "accesses" (Array.length files) m.Metrics.accesses;
  check_int "hits+fetches" m.Metrics.accesses (m.Metrics.hits + m.Metrics.demand_fetches);
  check_bool "used <= issued" true
    (m.Metrics.prefetch.Metrics.used <= m.Metrics.prefetch.Metrics.issued);
  check_bool "evicted_unused <= issued" true
    (m.Metrics.prefetch.Metrics.evicted_unused <= m.Metrics.prefetch.Metrics.issued)

let test_metrics_zero_access_edge_cases () =
  (* the divide-by-zero corner: a run that never happened must print as
     clean zeros, never nan/inf (satellite of the obs instrumentation PR) *)
  let prefetch = { Metrics.issued = 0; used = 0; evicted_unused = 0 } in
  let client = { Metrics.accesses = 0; hits = 0; demand_fetches = 0; prefetch } in
  let server =
    {
      Metrics.client_accesses = 0;
      server_requests = 0;
      server_hits = 0;
      store_fetches = 0;
      prefetch;
    }
  in
  check_bool "utilisation 0/0 = 0" true (Metrics.prefetch_utilisation prefetch = 0.0);
  check_bool "client hit rate 0/0 = 0" true (Metrics.client_hit_rate client = 0.0);
  check_bool "server hit rate 0/0 = 0" true (Metrics.server_hit_rate server = 0.0);
  let clean s =
    let has needle =
      let n = String.length needle and h = String.length s in
      let rec loop i = i + n <= h && (String.sub s i n = needle || loop (i + 1)) in
      loop 0
    in
    (not (has "nan")) && not (has "inf")
  in
  check_bool "pp_client prints no nan/inf" true
    (clean (Format.asprintf "%a" Metrics.pp_client client));
  check_bool "pp_server prints no nan/inf" true
    (clean (Format.asprintf "%a" Metrics.pp_server server))

let test_client_grouping_helps_on_runs () =
  (* a strongly sequential workload: grouping must cut demand fetches *)
  let prng = Agg_util.Prng.create ~seed:1 () in
  let trace = Agg_trace.Trace.create () in
  for _ = 1 to 3000 do
    let task = Agg_util.Prng.int prng 50 in
    for i = 0 to 7 do
      Agg_trace.Trace.add_access trace ((task * 8) + i)
    done
  done;
  let files = Agg_trace.Trace.files trace in
  let lru = (run_client ~config:(Config.with_group_size 1 Config.default) ~capacity:64 files).Metrics.demand_fetches in
  let g5 = (run_client ~capacity:64 files).Metrics.demand_fetches in
  check_bool "g5 reduces fetches by at least 40%" true (float_of_int g5 < 0.6 *. float_of_int lru)

let test_client_prefetch_accounting_on_perfect_sequence () =
  (* deterministic cycle through twice the cache capacity: misses keep
     occurring, and every speculative member is demanded before eviction *)
  let files = Array.init 1000 (fun i -> i mod 10) in
  let m = run_client ~capacity:5 files in
  check_bool "some prefetches issued" true (m.Metrics.prefetch.Metrics.issued > 0);
  check_bool "all used (nothing evicted unused)" true
    (m.Metrics.prefetch.Metrics.evicted_unused = 0)

let test_client_head_position_also_works () =
  let files = Agg_workload.Generator.generate_files ~seed:5 ~events:5000 Agg_workload.Profile.server in
  let config = { Config.default with member_position = Config.Head } in
  let m = run_client ~config ~capacity:300 files in
  let lru = lru_misses ~capacity:300 files in
  check_bool "head insertion still beats lru" true (m.Metrics.demand_fetches < lru)

let test_client_run_accumulates () =
  let cache = Client_cache.create ~capacity:10 () in
  let t = Agg_trace.Trace.of_files [ 1; 2; 3 ] in
  let m1 = Client_cache.run cache t in
  let m2 = Client_cache.run cache t in
  check_int "first pass" 3 m1.Metrics.accesses;
  check_int "accumulated" 6 m2.Metrics.accesses

let test_client_resident_probe () =
  let cache = Client_cache.create ~capacity:10 () in
  ignore (Client_cache.access cache 1);
  check_bool "resident" true (Client_cache.resident cache 1);
  check_bool "absent" false (Client_cache.resident cache 2)

(* A prefetch chosen outside the engine: issued when admitted, used at its
   first demand hit, evicted unused when a miss finds it gone; a resident
   file is left alone. *)
let test_client_admit () =
  let cache = Client_cache.of_scheme (Client_cache.Plain Agg_cache.Cache.Lru) ~capacity:2 in
  let admit file = Client_cache.admit cache (Client_cache.intern cache file) in
  let prefetch () = (Client_cache.metrics cache).Metrics.prefetch in
  ignore (Client_cache.access cache 1);
  admit 1;
  check_int "a resident file is not issued" 0 (prefetch ()).Metrics.issued;
  admit 2;
  check_bool "admitted" true (Client_cache.resident cache 2);
  check_int "issued" 1 (prefetch ()).Metrics.issued;
  check_int "admitting counts no access" 1 (Client_cache.metrics cache).Metrics.accesses;
  check_bool "its demand access hits" true (Client_cache.access cache 2);
  check_int "used" 1 (prefetch ()).Metrics.used;
  admit 2;
  check_int "a used file is resident, so not issued again" 1 (prefetch ()).Metrics.issued;
  (* 3 enters at the cold end, evicting 1; the miss on 4 evicts 3 *)
  admit 3;
  check_bool "1 evicted to make room" false (Client_cache.resident cache 1);
  check_bool "a miss" false (Client_cache.access cache 4);
  check_bool "3 evicted before use" false (Client_cache.resident cache 3);
  check_int "not unused until a miss finds it gone" 0 (prefetch ()).Metrics.evicted_unused;
  check_bool "the miss on 3" false (Client_cache.access cache 3);
  check_int "evicted unused" 1 (prefetch ()).Metrics.evicted_unused;
  check_int "issued twice in all" 2 (prefetch ()).Metrics.issued;
  let m = Client_cache.metrics cache in
  check_int "accesses" 4 m.Metrics.accesses;
  check_int "hits" 1 m.Metrics.hits;
  check_int "demand fetches" 3 m.Metrics.demand_fetches

(* --- Adaptive_client ---------------------------------------------------------- *)

let test_adaptive_grows_on_predictable_workload () =
  (* long deterministic runs: speculation always pays, so the controller
     should push the group size to its maximum *)
  let prng = Agg_util.Prng.create ~seed:2 () in
  let trace = Agg_trace.Trace.create () in
  for _ = 1 to 4000 do
    let task = Agg_util.Prng.int prng 60 in
    for i = 0 to 9 do
      Agg_trace.Trace.add_access trace ((task * 10) + i)
    done
  done;
  let adaptive = Adaptive_client.create ~min_group:1 ~max_group:8 ~window:100 ~capacity:80 () in
  ignore (Adaptive_client.run adaptive trace);
  check_int "converges to max" 8 (Adaptive_client.current_group_size adaptive)

let test_adaptive_shrinks_on_random_workload () =
  let prng = Agg_util.Prng.create ~seed:3 () in
  let files = Array.init 30000 (fun _ -> Agg_util.Prng.int prng 50000) in
  let adaptive = Adaptive_client.create ~min_group:1 ~max_group:8 ~window:100 ~capacity:100 () in
  Array.iter (fun f -> ignore (Adaptive_client.access adaptive f)) files;
  (* pure noise: prefetches never get used, so the group shrinks to 1 *)
  check_int "converges to min" 1 (Adaptive_client.current_group_size adaptive)

let test_adaptive_respects_bounds () =
  let files = Agg_workload.Generator.generate_files ~seed:4 ~events:10000 Agg_workload.Profile.server in
  let adaptive = Adaptive_client.create ~min_group:2 ~max_group:4 ~window:50 ~capacity:200 () in
  Array.iter (fun f -> ignore (Adaptive_client.access adaptive f)) files;
  List.iter
    (fun (_, g) -> check_bool "within bounds" true (g >= 2 && g <= 4))
    (Adaptive_client.trajectory adaptive);
  let g = Adaptive_client.current_group_size adaptive in
  check_bool "final within bounds" true (g >= 2 && g <= 4)

let test_adaptive_fixed_when_range_degenerate () =
  let files = Agg_workload.Generator.generate_files ~seed:4 ~events:5000 Agg_workload.Profile.server in
  let adaptive = Adaptive_client.create ~min_group:5 ~max_group:5 ~capacity:200 () in
  Array.iter (fun f -> ignore (Adaptive_client.access adaptive f)) files;
  check_int "never moves" 5 (Adaptive_client.current_group_size adaptive);
  check_int "no adaptations" 0 (List.length (Adaptive_client.trajectory adaptive))

let test_adaptive_validation () =
  Alcotest.check_raises "inverted range"
    (Invalid_argument "Adaptive_client.create: need 0 < min_group <= max_group") (fun () ->
      ignore (Adaptive_client.create ~min_group:5 ~max_group:2 ~capacity:10 ()));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Adaptive_client.create: window must be positive") (fun () ->
      ignore (Adaptive_client.create ~window:0 ~capacity:10 ()))

let test_set_group_size () =
  let cache = Client_cache.create ~capacity:10 () in
  check_int "initial" 5 (Client_cache.group_size cache);
  Client_cache.set_group_size cache 2;
  check_int "updated" 2 (Client_cache.group_size cache);
  Alcotest.check_raises "invalid"
    (Invalid_argument "Client_cache.set_group_size: group size must be positive") (fun () ->
      Client_cache.set_group_size cache 0)

(* --- Server_cache ------------------------------------------------------------- *)

let server_trace () =
  Agg_workload.Generator.generate ~seed:7 ~events:8000 Agg_workload.Profile.server

let test_server_plain_lru_matches_multilevel () =
  let trace = server_trace () in
  let sim =
    Server_cache.create ~filter_kind:Agg_cache.Cache.Lru ~filter_capacity:100 ~server_capacity:50
      ~scheme:(Server_cache.Plain Agg_cache.Cache.Lru) ()
  in
  let m = Server_cache.run sim trace in
  (* reference: two LRU caches composed by hand — a client miss goes on
     to the server, and each level inserts what it misses *)
  let client = Agg_cache.Cache.create Agg_cache.Cache.Lru ~capacity:100 in
  let server = Agg_cache.Cache.create Agg_cache.Cache.Lru ~capacity:50 in
  let server_hits = ref 0 and server_requests = ref 0 in
  Agg_trace.Trace.iter
    (fun (e : Agg_trace.Event.t) ->
      let file = e.Agg_trace.Event.file in
      if not (Agg_cache.Cache.access client file) then begin
        incr server_requests;
        if Agg_cache.Cache.access server file then incr server_hits
      end)
    trace;
  check_int "requests match" !server_requests m.Metrics.server_requests;
  check_int "hits match" !server_hits m.Metrics.server_hits

let test_server_metric_identities () =
  let trace = server_trace () in
  let sim =
    Server_cache.create ~filter_kind:Agg_cache.Cache.Lru ~filter_capacity:150 ~server_capacity:100
      ~scheme:(Server_cache.Aggregating Config.default) ()
  in
  let m = Server_cache.run sim trace in
  check_int "client accesses" (Agg_trace.Trace.length trace) m.Metrics.client_accesses;
  check_bool "requests <= accesses" true (m.Metrics.server_requests <= m.Metrics.client_accesses);
  check_bool "hits <= requests" true (m.Metrics.server_hits <= m.Metrics.server_requests);
  check_bool "store fetches >= misses" true
    (m.Metrics.store_fetches >= m.Metrics.server_requests - m.Metrics.server_hits)

let test_server_aggregating_beats_plain_under_filtering () =
  let trace = server_trace () in
  let hit_rate scheme =
    let sim =
      Server_cache.create ~filter_kind:Agg_cache.Cache.Lru ~filter_capacity:400 ~server_capacity:300
        ~scheme ()
    in
    Metrics.server_hit_rate (Server_cache.run sim trace)
  in
  let agg = hit_rate (Server_cache.Aggregating Config.default) in
  let plain = hit_rate (Server_cache.Plain Agg_cache.Cache.Lru) in
  check_bool "aggregating much better than lru when filter >= server" true (agg > plain +. 0.1)

let test_server_outcomes () =
  let sim =
    Server_cache.create ~filter_kind:Agg_cache.Cache.Lru ~filter_capacity:1 ~server_capacity:4
      ~scheme:(Server_cache.Plain Agg_cache.Cache.Lru) ()
  in
  check_bool "cold miss" true (Server_cache.access sim 1 = Server_cache.Server_miss);
  check_bool "client hit" true (Server_cache.access sim 1 = Server_cache.Client_hit);
  ignore (Server_cache.access sim 2);
  (* 1 falls out of the 1-entry client; server still has it *)
  check_bool "server hit" true (Server_cache.access sim 1 = Server_cache.Server_hit)

let test_server_cooperative_metadata () =
  (* with a filter big enough to absorb repeats, a non-cooperative server
     never learns successions (few misses), while a cooperative one sees
     every access; on a cyclic workload cooperation must not hurt *)
  let trace = Agg_trace.Trace.of_files (List.concat (List.init 200 (fun _ -> [ 1; 2; 3; 4; 5 ]))) in
  let rate cooperative =
    let sim =
      Server_cache.create ~cooperative ~filter_kind:Agg_cache.Cache.Lru ~filter_capacity:3
        ~server_capacity:4 ~scheme:(Server_cache.Aggregating Config.default) ()
    in
    Metrics.server_hit_rate (Server_cache.run sim trace)
  in
  check_bool "cooperative at least as good" true (rate true >= rate false -. 1e-9)

(* --- id renaming ------------------------------------------------------------ *)

(* The engine keys its tables by the order in which files first appear,
   never by their ids: renaming the ids through an injection must leave
   every metric equal and rename every event's ids the same way. *)

module Sink = Agg_obs.Sink
module Event = Agg_obs.Event

(* An injection of [0 .. span - 1] into [base, base + 10^9), drawn from
   [seed]. *)
let injection ~base ~seed span =
  let prng = Agg_util.Prng.create ~seed () in
  let taken = Hashtbl.create span in
  Array.init span (fun _ ->
      let rec draw () =
        let id = base + Agg_util.Prng.int prng 1_000_000_000 in
        if Hashtbl.mem taken id then draw ()
        else begin
          Hashtbl.replace taken id ();
          id
        end
      in
      draw ())

let rename_event f : Event.t -> Event.t = function
  | Demand_hit { file; depth } -> Demand_hit { file = f file; depth }
  | Demand_miss { file } -> Demand_miss { file = f file }
  | Prefetch_issued { file } -> Prefetch_issued { file = f file }
  | Prefetch_promoted { file; lifetime } -> Prefetch_promoted { file = f file; lifetime }
  | Evicted { file; speculative; age_accesses } ->
      Evicted { file = f file; speculative; age_accesses }
  | Group_built { anchor; size } -> Group_built { anchor = f anchor; size }
  | Successor_update { prev; next } -> Successor_update { prev = f prev; next = f next }
  (* cluster events, which the engine never emits: left as they are, a
     file id in one would not match its renaming *)
  | ( Fetch_timeout _ | Fetch_degraded _ | Node_routed _ | Replica_failover _ | Client_crashed _
    | Ring_rebalance _ ) as e ->
      e

(* Each level under test, as a replay of a file array into a memory
   sink: its metrics, printed, and the events it emitted. *)
let renaming_levels =
  let client scheme files =
    let obs = Sink.memory () in
    let m = Client_cache.run_files (Client_cache.of_scheme ~obs scheme ~capacity:100) files in
    (Format.asprintf "%a" Metrics.pp_client m, Sink.events obs)
  in
  let server cooperative files =
    let obs = Sink.memory () in
    let path =
      Server_cache.create ~cooperative ~obs ~filter_kind:Agg_cache.Cache.Lru ~filter_capacity:30
        ~server_capacity:100 ~scheme:(Server_cache.Aggregating Config.default) ()
    in
    let m = Server_cache.run_files path files in
    (Format.asprintf "%a" Metrics.pp_server m, Sink.events obs)
  in
  [
    ("plain lru client", client (Client_cache.Plain Agg_cache.Cache.Lru));
    ("g5 client", client (Client_cache.Aggregating Config.default));
    ("g5 server", server false);
    ("cooperative g5 server", server true);
  ]

let renaming_property ~name ~base =
  QCheck.Test.make ~name ~count:8
    QCheck.(pair (int_bound 10_000) (int_bound (List.length Agg_workload.Profile.all - 1)))
    (fun (seed, profile) ->
      let files =
        Agg_workload.Generator.generate_files ~seed ~events:1_500
          (List.nth Agg_workload.Profile.all profile)
      in
      let map = injection ~base ~seed (1 + Array.fold_left Int.max 0 files) in
      let renamed = Array.map (fun f -> map.(f)) files in
      List.for_all
        (fun (name, replay) ->
          let metrics, events = replay files in
          let metrics', events' = replay renamed in
          if metrics <> metrics' then
            QCheck.Test.fail_reportf "%s: metrics %s, renamed %s" name metrics metrics';
          if events' <> List.map (rename_event (fun f -> map.(f))) events then
            QCheck.Test.fail_reportf "%s: the renamed run's events are not the renamed events"
              name;
          events <> [])
        renaming_levels)

(* --- qcheck properties ------------------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  let files_gen = list_of_size (Gen.int_range 20 400) (int_range 0 40) in
  [
    renaming_property ~name:"renaming file ids renames events and keeps metrics" ~base:0;
    (* ids past 2^30 take the interner's side table *)
    renaming_property ~name:"renaming file ids to ids near 2^40 renames events and keeps metrics"
      ~base:(1 lsl 40);
    Test.make ~name:"g=1 aggregating cache is exactly LRU" ~count:80
      (pair files_gen (int_range 1 20))
      (fun (files, capacity) ->
        let files = Array.of_list files in
        let config = Config.with_group_size 1 Config.default in
        let m = run_client ~config ~capacity files in
        m.Metrics.demand_fetches = lru_misses ~capacity files
        && m.Metrics.prefetch.Metrics.issued = 0);
    Test.make ~name:"group builder output bounded, unique, anchored" ~count:80
      (pair files_gen (int_range 1 10))
      (fun (files, size) ->
        let t = Agg_successor.Tracker.create () in
        List.iter (fun f -> Agg_successor.Tracker.observe t f) files;
        List.for_all
          (fun root ->
            match Group_builder.build t ~group_size:size root with
            | anchor :: rest ->
                anchor = root
                && List.length rest <= size - 1
                && (not (List.mem root rest))
                && List.length (List.sort_uniq compare rest) = List.length rest
            | [] -> false)
          (List.sort_uniq compare files));
    Test.make ~name:"client metrics identities hold on random traces" ~count:60
      (pair files_gen (int_range 2 20))
      (fun (files, capacity) ->
        let files = Array.of_list files in
        let m = run_client ~capacity files in
        m.Metrics.accesses = Array.length files
        && m.Metrics.hits + m.Metrics.demand_fetches = m.Metrics.accesses
        && m.Metrics.prefetch.Metrics.used + m.Metrics.prefetch.Metrics.evicted_unused
           <= m.Metrics.prefetch.Metrics.issued);
  ]

let () =
  Alcotest.run "agg_core"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "validation" `Quick test_config_validation;
        ] );
      ( "group_builder",
        [
          Alcotest.test_case "group of one" `Quick test_builder_group_of_one;
          Alcotest.test_case "small groups immediate" `Quick test_builder_small_groups_use_immediate;
          Alcotest.test_case "large groups chain" `Quick test_builder_large_groups_chain;
          Alcotest.test_case "chain fallback" `Quick test_builder_chain_fallback;
          Alcotest.test_case "no metadata" `Quick test_builder_no_metadata;
          Alcotest.test_case "never duplicates" `Quick test_builder_never_duplicates;
          Alcotest.test_case "invalid size" `Quick test_builder_invalid;
        ] );
      ( "client_cache",
        [
          Alcotest.test_case "g1 = lru (crafted)" `Quick test_client_g1_equals_lru_crafted;
          Alcotest.test_case "g1 = lru (generated)" `Quick test_client_g1_equals_lru_generated;
          Alcotest.test_case "metric identities" `Quick test_client_metric_identities;
          Alcotest.test_case "zero-access printing" `Quick test_metrics_zero_access_edge_cases;
          Alcotest.test_case "grouping helps on runs" `Quick test_client_grouping_helps_on_runs;
          Alcotest.test_case "perfect sequence accounting" `Quick
            test_client_prefetch_accounting_on_perfect_sequence;
          Alcotest.test_case "head position" `Quick test_client_head_position_also_works;
          Alcotest.test_case "run accumulates" `Quick test_client_run_accumulates;
          Alcotest.test_case "resident probe" `Quick test_client_resident_probe;
          Alcotest.test_case "admit" `Quick test_client_admit;
        ] );
      ( "adaptive_client",
        [
          Alcotest.test_case "grows on predictable workload" `Quick
            test_adaptive_grows_on_predictable_workload;
          Alcotest.test_case "shrinks on random workload" `Quick
            test_adaptive_shrinks_on_random_workload;
          Alcotest.test_case "respects bounds" `Quick test_adaptive_respects_bounds;
          Alcotest.test_case "degenerate range is fixed" `Quick
            test_adaptive_fixed_when_range_degenerate;
          Alcotest.test_case "validation" `Quick test_adaptive_validation;
          Alcotest.test_case "set_group_size" `Quick test_set_group_size;
        ] );
      ( "server_cache",
        [
          Alcotest.test_case "plain lru matches multilevel" `Quick
            test_server_plain_lru_matches_multilevel;
          Alcotest.test_case "metric identities" `Quick test_server_metric_identities;
          Alcotest.test_case "aggregating beats plain" `Quick
            test_server_aggregating_beats_plain_under_filtering;
          Alcotest.test_case "outcomes" `Quick test_server_outcomes;
          Alcotest.test_case "cooperative metadata" `Quick test_server_cooperative_metadata;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
