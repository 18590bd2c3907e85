(* Tests for the sharded cluster: consistent-hash ring invariants
   (deterministic ownership, distinct replication groups, minimal-movement
   rebalancing), the one-node cluster (the paper's fleet) in lockstep with
   the two-level reference model and against recorded counters, fleet
   accounting and coherence, replica failover under node kills, churn
   rebalancing, event-stream reconciliation, and sweep independence from
   the jobs count. *)

open Agg_cluster
module Scheme = Agg_system.Scheme
module Model_system = Agg_oracle.Model_system
module Plan = Agg_faults.Plan
module Counters = Agg_faults.Counters
module Sink = Agg_obs.Sink
module Obs_digest = Agg_obs.Digest

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let users_trace =
  lazy (Agg_workload.Generator.generate ~seed:5 ~events:4000 Agg_workload.Profile.users)

(* a plan covering every fault class the one-node cluster models *)
let hostile = { Plan.default with Plan.crash_rate = 0.002 }

(* independent per-node outage windows, as the cluster sweep builds them *)
let node_kills rate =
  { Plan.none with Plan.seed = 23; outage_period = 1000; outage_rate = rate; outage_length = 400 }

(* --- ring ------------------------------------------------------------- *)

let sample_files = List.init 64 (fun i -> i * 97)

let test_ring_basics () =
  let r = Ring.create ~seed:1 ~nodes:5 () in
  Alcotest.(check (list int)) "members" [ 0; 1; 2; 3; 4 ] (Ring.members r);
  check_int "node_count" 5 (Ring.node_count r);
  check_bool "contains 3" true (Ring.contains r 3);
  check_bool "contains 5" false (Ring.contains r 5);
  List.iter
    (fun f ->
      let owner = Ring.owner r f in
      check_bool "owner is a member" true (Ring.contains r owner);
      Alcotest.(check (list int)) "k=1 group is the owner" [ owner ] (Ring.group r ~replicas:1 f))
    sample_files

let test_ring_validation () =
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  check_bool "nodes=0 rejected" true (raises (fun () -> Ring.create ~seed:1 ~nodes:0 ()));
  let r = Ring.create ~seed:1 ~nodes:2 () in
  check_bool "add duplicate rejected" true (raises (fun () -> Ring.add r 1));
  check_bool "add negative rejected" true (raises (fun () -> Ring.add r (-1)));
  check_bool "remove absent rejected" true (raises (fun () -> Ring.remove r 7));
  check_bool "remove last rejected" true
    (raises (fun () -> Ring.remove (Ring.remove r 0) 1));
  check_bool "replicas=0 rejected" true (raises (fun () -> Ring.group r ~replicas:0 3));
  check_bool "point_group_into replicas=0 rejected" true
    (raises (fun () -> Ring.point_group_into r ~replicas:0 (Ring.point_of r 3) (Array.make 2 0)));
  check_bool "point_group_into point out of range rejected" true
    (raises (fun () -> Ring.point_group_into r ~replicas:1 (Ring.point_count r) (Array.make 2 0)));
  check_bool "point_group_into short buffer rejected" true
    (raises (fun () -> Ring.point_group_into r ~replicas:2 0 (Array.make 1 0)))

let test_ring_group_clamps () =
  let r = Ring.create ~seed:9 ~nodes:3 () in
  List.iter
    (fun f ->
      let g = Ring.group r ~replicas:10 f in
      Alcotest.(check (list int)) "clamped group covers every member" (Ring.members r)
        (List.sort compare g))
    sample_files

(* The ring restated from its definition as plain lists: every member
   contributes [points_per_node] points at [bits64 (derive (derive base
   node) i) >>> 2], a file sits at [bits64 (derive (derive base (-1))
   file) >>> 2], and its group is the first [k] distinct owners met
   walking clockwise (ascending position, wrapping) from the file. *)
let naive_group ring =
  let module Prng = Agg_util.Prng in
  let base = Prng.create ~seed:(Ring.seed ring) () in
  let position g = Int64.to_int (Int64.shift_right_logical (Prng.bits64 g) 2) in
  let points =
    List.concat_map
      (fun node ->
        List.init (Ring.points_per_node ring) (fun i ->
            (position (Prng.derive (Prng.derive base node) i), node)))
      (Ring.members ring)
    |> List.sort compare
  in
  let files = Prng.derive base (-1) in
  fun ~replicas file ->
    let at = position (Prng.derive files file) in
    let after, before = List.partition (fun (p, _) -> p >= at) points in
    let want = min replicas (List.length (Ring.members ring)) in
    let rec walk acc = function
      | _ when List.length acc = want -> List.rev acc
      | [] -> List.rev acc
      | (_, node) :: rest -> walk (if List.mem node acc then acc else node :: acc) rest
    in
    walk [] (after @ before)

(* A ring of [points_per_node] points per node (by default 1-1024, a
   function of the seed) after churn ops (join?, node): a join of a member
   or a leave of a non-member (or of the last member) is skipped. The
   range spans guide buckets that hold several points, empty buckets, and
   files that wrap past the last point. *)
let churned_ring ?points_per_node ~seed ~nodes ops =
  let points_per_node = Option.value points_per_node ~default:(1 + (seed mod 1024)) in
  List.fold_left
    (fun r (join, node) ->
      if join then if Ring.contains r node then r else Ring.add r node
      else if Ring.contains r node && Ring.node_count r > 1 then Ring.remove r node
      else r)
    (Ring.create ~points_per_node ~seed ~nodes ())
    ops

let ring_qcheck =
  let open QCheck in
  let seed_gen = int_range 0 100_000 in
  let churn = list_of_size Gen.(int_range 0 8) (pair bool (int_range 0 9)) in
  [
    Test.make ~name:"Ring: ownership is a pure function of seed and membership" ~count:100
      (triple seed_gen (int_range 1 12) (int_range 0 100_000))
      (fun (seed, nodes, file) ->
        let a = Ring.create ~seed ~nodes () in
        let b = Ring.create ~seed ~nodes () in
        Ring.owner a file = Ring.owner b file
        && Ring.group a ~replicas:3 file = Ring.group b ~replicas:3 file);
    Test.make ~name:"Ring: groups are min(k, nodes) distinct members, primary first" ~count:100
      (quad seed_gen (int_range 1 12) (int_range 1 6) (int_range 0 100_000))
      (fun (seed, nodes, k, file) ->
        let r = Ring.create ~seed ~nodes () in
        let g = Ring.group r ~replicas:k file in
        List.length g = min k nodes
        && List.length (List.sort_uniq compare g) = List.length g
        && List.for_all (Ring.contains r) g
        && List.hd g = Ring.owner r file);
    Test.make ~name:"Ring: a join only pulls the new node into groups" ~count:100
      (triple seed_gen (int_range 1 10) (int_range 1 4))
      (fun (seed, nodes, k) ->
        let r = Ring.create ~seed ~nodes () in
        let r' = Ring.add r nodes in
        List.for_all
          (fun f ->
            let before = Ring.group r ~replicas:k f in
            let after = Ring.group r' ~replicas:k f in
            List.for_all (fun n -> List.mem n before || n = nodes) after)
          sample_files);
    Test.make ~name:"Ring: group equals the naive clockwise walk, across joins and leaves"
      ~count:100
      (quad seed_gen (int_range 1 6) churn (int_range 1 7))
      (fun (seed, nodes, ops, k) ->
        let r = churned_ring ~seed ~nodes ops in
        let naive = naive_group r in
        List.for_all
          (fun f ->
            Ring.group r ~replicas:k f = naive ~replicas:k f
            && Ring.owner r f = List.hd (naive ~replicas:1 f))
          sample_files);
    Test.make
      ~name:"Ring: group_into a dirty buffer equals the naive clockwise walk, across joins and leaves"
      ~count:100
      (quad seed_gen (int_range 1 6) churn (int_range 1 7))
      (fun (seed, nodes, ops, k) ->
        let r = churned_ring ~seed ~nodes ops in
        let naive = naive_group r in
        let buf = Array.make 8 (-3) in
        List.for_all
          (fun f ->
            (* a longer walk of another file leaves real node ids behind *)
            ignore (Ring.group_into r ~replicas:8 (f + 1) buf);
            let before = Array.copy buf in
            let n = Ring.group_into r ~replicas:k f buf in
            Array.to_list (Array.sub buf 0 n) = naive ~replicas:k f
            && Array.sub buf n (8 - n) = Array.sub before n (8 - n))
          sample_files);
    Test.make ~name:"Ring: a file's point group is its group, across joins and leaves"
      ~count:200
      (quad (pair seed_gen (int_range 1 64)) (int_range 1 8) churn (int_range 1 5))
      (fun ((seed, points_per_node), nodes, ops, k) ->
        let r = churned_ring ~points_per_node ~seed ~nodes ops in
        let row = Array.make 8 (-1) and walk = Array.make 8 (-2) in
        List.for_all
          (fun f ->
            let p = Ring.point_of r f in
            let n = Ring.point_group_into r ~replicas:k p row in
            let members = Array.to_list (Array.sub row 0 n) in
            let g = Ring.group r ~replicas:k f in
            0 <= p
            && p < Ring.point_count r
            && n = Ring.group_into r ~replicas:k f walk
            && Array.sub walk 0 n = Array.sub row 0 n
            && n = min k (Ring.node_count r)
            && List.length (List.sort_uniq compare members) = n
            && List.for_all
                 (fun node -> List.mem node members = List.mem node g)
                 (List.init 11 Fun.id))
          (0 :: 1_000_000_000_000 :: sample_files));
    Test.make ~name:"Ring: a leave never evicts surviving group members" ~count:100
      (quad seed_gen (int_range 2 10) (int_range 1 4) (int_range 0 9))
      (fun (seed, nodes, k, leaver) ->
        let leaver = leaver mod nodes in
        let r = Ring.create ~seed ~nodes () in
        let r' = Ring.remove r leaver in
        List.for_all
          (fun f ->
            let before = Ring.group r ~replicas:k f in
            let after = Ring.group r' ~replicas:k f in
            List.for_all (fun n -> n = leaver || List.mem n after) before)
          sample_files);
  ]

(* --- the one-node cluster: reference model and recorded counters -------- *)

(* One plain-LRU client in front of one aggregating g = 5 node, with
   global metadata and no coherence traffic, is exactly the two-level
   system of Fig. 4, at either value of [cooperative]: misses-only
   metadata, or every access piggy-backed (§3). The reference model steps
   access by access; at every 100th access of each paper profile the
   cluster replays the prefix and the load counters must agree. *)
let test_one_node_matches_reference_model () =
  List.iter
    (fun (profile, cooperative) ->
      let trace = Agg_workload.Generator.generate ~seed:5 ~events:2000 profile in
      let config =
        {
          Cluster.default_config with
          Cluster.clients = 1;
          client_scheme = Scheme.plain_lru;
          per_client_metadata = false;
          write_invalidation = false;
          cooperative;
        }
      in
      let model =
        Model_system.Server.create ~cooperative ~filter_kind:Agg_cache.Cache.Lru
          ~filter_capacity:config.Cluster.client_capacity
          ~server_capacity:config.Cluster.node_capacity
          ~scheme:(Agg_core.Server_cache.Aggregating Agg_core.Config.default) ()
      in
      Array.iteri
        (fun idx file ->
          ignore (Model_system.Server.access model file);
          let len = idx + 1 in
          if len mod 100 = 0 then begin
            let r = Cluster.run config (Agg_trace.Trace.sub trace ~pos:0 ~len) in
            let m = Model_system.Server.metrics model in
            let at what =
              Printf.sprintf "%s/cooperative=%b: %s after %d accesses"
                profile.Agg_workload.Profile.name cooperative what len
            in
            check_int (at "client hits")
              (m.Agg_core.Metrics.client_accesses - m.Agg_core.Metrics.server_requests)
              r.Cluster.client_hits;
            check_int (at "server requests") m.Agg_core.Metrics.server_requests
              r.Cluster.server_requests;
            check_int (at "server hits") m.Agg_core.Metrics.server_hits r.Cluster.server_hits;
            check_int (at "store fetches") m.Agg_core.Metrics.store_fetches
              r.Cluster.store_fetches
          end)
        (Agg_trace.Trace.files trace))
    (List.concat_map
       (fun profile -> [ (profile, false); (profile, true) ])
       Agg_workload.Profile.all)

(* The counters the former standalone fleet simulator reported on
   [users_trace], pinned as literals the one-node cluster must reproduce:
   accesses, client hits, server requests, server hits, store fetches,
   invalidations; the fault block (lost, outage, timeouts, retries,
   degraded, slowed, crashes); and each client's (hits, accesses). *)
let check_recorded config ~counters ~faults ~per_client =
  let r = Cluster.run config (Lazy.force users_trace) in
  Alcotest.(check (list int)) "counters" counters
    [
      r.Cluster.accesses;
      r.Cluster.client_hits;
      r.Cluster.server_requests;
      r.Cluster.server_hits;
      r.Cluster.store_fetches;
      r.Cluster.invalidations;
    ];
  let f = r.Cluster.faults in
  Alcotest.(check (list int)) "faults" faults
    [
      f.Counters.lost_messages;
      f.Counters.outage_denials;
      f.Counters.timeouts;
      f.Counters.retries;
      f.Counters.degraded_fetches;
      f.Counters.slowed_fetches;
      f.Counters.crashes;
    ];
  Alcotest.(check (list (pair int (float 0.0))))
    "per-client hit rates"
    (List.mapi (fun i (hits, accesses) -> (i, Agg_util.Stats.ratio hits accesses)) per_client)
    r.Cluster.per_client_hit_rate

let test_recorded_healthy () =
  check_recorded Cluster.default_config
    ~counters:[ 4000; 2924; 1076; 119; 1048; 131 ]
    ~faults:[ 0; 0; 0; 0; 0; 0; 0 ]
    ~per_client:[ (731, 1023); (885, 1210); (580, 882); (728, 885) ]

let test_recorded_hostile () =
  check_recorded
    { Cluster.default_config with Cluster.faults = hostile }
    ~counters:[ 4000; 2878; 1122; 155; 1076; 134 ]
    ~faults:[ 128; 0; 128; 126; 2; 63; 6 ]
    ~per_client:[ (709, 1023); (865, 1210); (581, 882); (723, 885) ]

let test_recorded_plain_lru () =
  check_recorded
    {
      Cluster.default_config with
      Cluster.client_scheme = Scheme.plain_lru;
      node_scheme = Scheme.plain_lru;
      faults = hostile;
    }
    ~counters:[ 4000; 2810; 1190; 196; 994; 95 ]
    ~faults:[ 135; 0; 135; 133; 2; 67; 6 ]
    ~per_client:[ (684, 1023); (833, 1210); (579, 882); (714, 885) ]

let test_recorded_small_global () =
  check_recorded
    {
      Cluster.default_config with
      Cluster.clients = 3;
      client_capacity = 8;
      node_capacity = 16;
      per_client_metadata = false;
      write_invalidation = false;
      faults = { Plan.default with Plan.crash_rate = 0.01 };
    }
    ~counters:[ 4000; 2274; 1726; 154; 3631; 0 ]
    ~faults:[ 202; 0; 202; 199; 3; 88; 41 ]
    ~per_client:[ (721, 1293); (613, 1201); (940, 1506) ]

(* --- fleet: many clients sharing the one node --------------------------- *)

let fleet_config ?(clients = 2) ?(write_invalidation = true) () =
  {
    Cluster.default_config with
    Cluster.clients;
    client_capacity = 8;
    node_capacity = 16;
    write_invalidation;
  }

let test_fleet_accounting () =
  let trace = Agg_workload.Generator.generate ~seed:5 ~events:6000 Agg_workload.Profile.users in
  let r = Cluster.run (fleet_config ~clients:4 ()) trace in
  check_int "accesses" 6000 r.Cluster.accesses;
  check_int "requests = misses" (r.Cluster.accesses - r.Cluster.client_hits)
    r.Cluster.server_requests;
  check_bool "server hits <= requests" true (r.Cluster.server_hits <= r.Cluster.server_requests);
  check_int "four per-client rows" 4 (List.length r.Cluster.per_client_hit_rate)

let test_fleet_write_invalidation () =
  (* two clients ping-pong on one file: writes by client 1 must break
     client 0's cached copy, forcing it back to the server *)
  let trace = Agg_trace.Trace.create () in
  for _ = 1 to 20 do
    Agg_trace.Trace.add_access trace ~client:0 ~op:Agg_trace.Event.Open 7;
    Agg_trace.Trace.add_access trace ~client:1 ~op:Agg_trace.Event.Write 7
  done;
  let with_inv = Cluster.run (fleet_config ()) trace in
  let without_inv = Cluster.run (fleet_config ~write_invalidation:false ()) trace in
  check_bool "invalidations recorded" true (with_inv.Cluster.invalidations > 0);
  check_int "no invalidations when disabled" 0 without_inv.Cluster.invalidations;
  check_bool "coherence costs client hits" true
    (with_inv.Cluster.client_hits < without_inv.Cluster.client_hits)

let test_fleet_single_client_matches_many_ids () =
  (* clients = 1 folds every stream into one cache; ids beyond the fleet
     size wrap around instead of crashing *)
  let trace = Agg_workload.Generator.generate ~seed:5 ~events:3000 Agg_workload.Profile.users in
  let r = Cluster.run (fleet_config ~clients:1 ()) trace in
  check_int "all accesses in one client" 3000 r.Cluster.accesses;
  check_int "one row" 1 (List.length r.Cluster.per_client_hit_rate)

let test_fleet_aggregation_reduces_requests () =
  let trace = Agg_workload.Generator.generate ~seed:7 ~events:10_000 Agg_workload.Profile.server in
  let base =
    {
      Cluster.default_config with
      Cluster.clients = 1;
      client_capacity = 200;
      node_capacity = 300;
    }
  in
  let plain = Cluster.run { base with Cluster.client_scheme = Scheme.plain_lru } trace in
  let agg = Cluster.run base trace in
  check_bool "fewer server requests with grouping" true
    (agg.Cluster.server_requests < plain.Cluster.server_requests)

let test_fleet_invalid_clients () =
  Alcotest.check_raises "0 clients"
    (Invalid_argument "Cluster.run: clients must be positive (got 0)") (fun () ->
      ignore
        (Cluster.run { Cluster.default_config with Cluster.clients = 0 } (Agg_trace.Trace.create ())));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Cluster.run: client_capacity must be positive (got -3)") (fun () ->
      ignore
        (Cluster.run
           { Cluster.default_config with Cluster.client_capacity = -3 }
           (Agg_trace.Trace.create ())))

(* --- failover and degradation ------------------------------------------ *)

let test_cluster_keeps_serving_under_node_kills () =
  let trace = Lazy.force users_trace in
  let config =
    {
      Cluster.default_config with
      Cluster.nodes = 5;
      replicas = 3;
      metadata = Cluster.Replicated_with_group;
      faults = node_kills 0.3;
    }
  in
  let r = Cluster.run config trace in
  check_int "every request is served" r.Cluster.server_requests
    (r.Cluster.routed_fetches + r.Cluster.faults.Counters.degraded_fetches);
  check_int "every access is accounted" 4000 r.Cluster.accesses;
  check_bool "outages fired" true (r.Cluster.faults.Counters.outage_denials > 0);
  check_bool "failovers happened" true (r.Cluster.failovers > 0);
  check_bool "clients still hit their caches" true (Cluster.client_hit_rate r > 0.0);
  (* replication is what absorbs the kills: k = 1 on the same plan
     degrades strictly more often *)
  let r1 = Cluster.run { config with Cluster.replicas = 1 } trace in
  check_bool "k=3 degrades less than k=1" true
    (r.Cluster.faults.Counters.degraded_fetches < r1.Cluster.faults.Counters.degraded_fetches)

let test_placement_axis () =
  let trace = Lazy.force users_trace in
  let run placement =
    Cluster.run
      {
        Cluster.default_config with
        Cluster.nodes = 5;
        replicas = 2;
        metadata = placement;
      }
      trace
  in
  let results = List.map run Cluster.placements in
  List.iter
    (fun (r : Cluster.result) ->
      check_int "all accesses" 4000 r.Cluster.accesses;
      check_int "all served" r.Cluster.server_requests r.Cluster.routed_fetches)
    results;
  (* sharding the metadata with the data (owner) must not behave like
     replicating it: the placements are a real axis, not a label *)
  match List.map (fun (r : Cluster.result) -> r.Cluster.client_hits) results with
  | [ owner; grouped; _client ] -> check_bool "owner and group placements differ" true (owner <> grouped)
  | _ -> Alcotest.fail "expected three placements"

(* --- churn -------------------------------------------------------------- *)

let test_churn_rebalances () =
  let trace = Lazy.force users_trace in
  let sink = Sink.memory () in
  let config =
    {
      Cluster.default_config with
      Cluster.nodes = 3;
      replicas = 2;
      metadata = Cluster.Replicated_with_group;
      churn = [ (1000, Cluster.Join 3); (2500, Cluster.Leave 1) ];
      scope = Some (Agg_obs.Scope.create ~sink ());
    }
  in
  let r = Cluster.run config trace in
  check_int "both churn ops applied" 2 r.Cluster.rebalances;
  check_bool "rebalancing moved cached files" true (r.Cluster.moved_files > 0);
  check_bool "joiner served requests" true
    (match List.assoc_opt 3 r.Cluster.per_node_requests with Some n -> n > 0 | None -> false);
  check_bool "leaver's requests retained" true (List.mem_assoc 1 r.Cluster.per_node_requests);
  check_int "rebalance events emitted" 2 (Obs_digest.ring_rebalances (Obs_digest.of_events (Sink.events sink)));
  (* the sink must not influence the simulation *)
  let r2 = Cluster.run { config with Cluster.scope = None } trace in
  check_bool "noop-sink rerun identical" true (r2 = r)

(* Node states are searched by id, never indexed by it: a joiner with an
   id far beyond the initial range serves like any other node. *)
let test_churn_huge_node_id () =
  let trace = Lazy.force users_trace in
  let huge = 1_000_000_000_000 in
  let config =
    {
      Cluster.default_config with
      Cluster.nodes = 3;
      replicas = 2;
      metadata = Cluster.Replicated_with_group;
      faults = Agg_faults.Plan.default;
      churn = [ (1000, Cluster.Join huge); (2500, Cluster.Leave 1) ];
    }
  in
  let r = Cluster.run config trace in
  check_int "both churn ops applied" 2 r.Cluster.rebalances;
  check_bool "huge joiner served requests" true
    (match List.assoc_opt huge r.Cluster.per_node_requests with Some n -> n > 0 | None -> false);
  check_int "every request served"
    r.Cluster.server_requests
    (r.Cluster.routed_fetches + r.Cluster.faults.Agg_faults.Counters.degraded_fetches);
  check_int "per-node loads sum to the requests" r.Cluster.server_requests
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Cluster.per_node_requests)

let test_churn_validation () =
  let trace = Lazy.force users_trace in
  let raises config =
    try Cluster.run config trace |> ignore; false with Invalid_argument _ -> true
  in
  check_bool "negative churn time rejected" true
    (raises { Cluster.default_config with Cluster.churn = [ (-1, Cluster.Join 1) ] });
  check_bool "joining a present node rejected" true
    (raises { Cluster.default_config with Cluster.churn = [ (0, Cluster.Join 0) ] });
  check_bool "leaving the last node rejected" true
    (raises { Cluster.default_config with Cluster.churn = [ (0, Cluster.Leave 0) ] })

(* --- event reconciliation ----------------------------------------------- *)

let test_reconcile_event_stream () =
  let trace = Lazy.force users_trace in
  let sink = Sink.memory () in
  let config =
    {
      Cluster.default_config with
      Cluster.nodes = 4;
      replicas = 2;
      metadata = Cluster.Replicated_with_group;
      faults = { (node_kills 0.4) with Plan.loss_rate = 0.05 };
      churn = [ (500, Cluster.Join 4) ];
      scope = Some (Agg_obs.Scope.create ~sink ());
    }
  in
  let r = Cluster.run config trace in
  let events = Sink.events sink in
  let digest = Obs_digest.of_events events in
  (match Cluster.reconcile digest r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "stream does not reconcile: %s" e);
  check_bool "routed events present" true (Obs_digest.node_routes digest > 0);
  check_bool "failover events present" true (Obs_digest.replica_failovers digest > 0);
  check_int "one rebalance event" 1 (Obs_digest.ring_rebalances digest);
  (* dropping the routing events must be detected *)
  let tampered =
    List.filter (function Agg_obs.Event.Node_routed _ -> false | _ -> true) events
  in
  match Cluster.reconcile (Obs_digest.of_events tampered) r with
  | Ok () -> Alcotest.fail "tampered stream reconciled"
  | Error _ -> ()

(* --- sweep: jobs-independence -------------------------------------------- *)

let tiny = { Agg_sim.Experiment.events = 3000; seed = 7; jobs = 1 }

let test_sweep_jobs_identity () =
  let sweep jobs =
    Agg_sim.Cluster.sweep ~node_counts:[ 3 ] ~node_loss_rates:[ 0.0; 0.2 ]
      ~replica_counts:[ 1; 2 ]
      (Agg_sim.Experiment.Runner.create ~settings:{ tiny with Agg_sim.Experiment.jobs } ())
  in
  let a = sweep 1 in
  let b = sweep 4 in
  check_bool "points identical for jobs=1 and jobs=4" true (a = b);
  let json points = Agg_util.Json.to_string (Agg_sim.Cluster.json_of_points points) in
  check_string "json byte-identical for jobs=1 and jobs=4" (json a) (json b)

(* --- telemetry ----------------------------------------------------------- *)

let telemetry_config () =
  {
    Cluster.default_config with
    Cluster.nodes = 5;
    replicas = 3;
    metadata = Cluster.Replicated_with_group;
    faults = node_kills 0.3;
  }

let test_series_node_loads_reconcile () =
  let trace = Lazy.force users_trace in
  let series = Agg_obs.Series.create ~window:500 in
  let ctx = Agg_obs.Trace_ctx.create ~seed:7 () in
  let r =
    Cluster.run
      { (telemetry_config ()) with
        Cluster.scope = Some (Agg_obs.Scope.create ~series ~trace_ctx:ctx ()) }
      trace
  in
  check_int "series accesses = run accesses" r.Cluster.accesses
    (Agg_obs.Series.total_accesses series);
  check_int "series hits = client hits" r.Cluster.client_hits
    (Agg_obs.Series.total_hits series);
  check_int "series degraded = fault counter" r.Cluster.faults.Counters.degraded_fetches
    (Agg_obs.Series.total_degraded series);
  check_int "every access carries one latency sample" r.Cluster.accesses
    (Agg_obs.Histogram.count (Agg_obs.Series.total_latency series));
  (* the windowed per-node loads sum to per_node_requests, node by node
     (degraded fallbacks count against the primary on both sides) *)
  let loads = Hashtbl.create 8 in
  for w = 0 to Agg_obs.Series.windows series - 1 do
    List.iter
      (fun (n, c) ->
        Hashtbl.replace loads n (c + Option.value ~default:0 (Hashtbl.find_opt loads n)))
      (Agg_obs.Series.node_loads series w)
  done;
  List.iter
    (fun (n, c) ->
      check_int (Printf.sprintf "node %d load" n) c
        (Option.value ~default:0 (Hashtbl.find_opt loads n));
      Hashtbl.remove loads n)
    r.Cluster.per_node_requests;
  check_int "no load outside per_node_requests" 0 (Hashtbl.length loads);
  (* sample 1.0 traces every request; failovers appear as route markers *)
  check_int "every request traced" r.Cluster.accesses (Agg_obs.Trace_ctx.sampled_requests ctx);
  let routes =
    List.length
      (List.filter
         (fun s -> s.Agg_obs.Trace_ctx.span_cat = "route")
         (Agg_obs.Trace_ctx.spans ctx))
  in
  check_int "one route marker per failover" r.Cluster.failovers routes

(* --- known answers ----------------------------------------------------------- *)

(* Recorded against the ring that built two derived generators per point
   and the cluster that kept its per-file state under the trace's own ids.
   Each ring hash covers, for files 0 to 5000, every point, owner and
   three-replica group on rings of 1, 2, 3, 5, 8 and 13 nodes, and on each
   ring rebuilt after one membership change and its undo. *)
let ring_known_answers =
  [
    (7, "e3b15e0de2ea5e066976b69e3019392c");
    (17, "62c6400f60e33f9ddf3589cbba98caf0");
    (42, "99f8c0308627332360ece5c725c8f14a");
  ]

let ring_text seed =
  let text = Buffer.create (1 lsl 20) in
  List.iter
    (fun nodes ->
      let r = Ring.create ~seed ~nodes () in
      let changed = nodes / 2 in
      let rebuilt =
        if nodes = 1 then Ring.remove (Ring.add r 1) 1
        else Ring.add (Ring.remove r changed) changed
      in
      List.iter
        (fun ring ->
          for file = 0 to 5_000 do
            Printf.bprintf text "%d %d %d" file (Ring.point_of ring file) (Ring.owner ring file);
            List.iter (Printf.bprintf text " %d") (Ring.group ring ~replicas:3 file);
            Buffer.add_char text '\n'
          done)
        [ r; rebuilt ])
    [ 1; 2; 3; 5; 8; 13 ];
  Buffer.contents text

let test_ring_known_answers () =
  List.iter
    (fun (seed, md5) ->
      check_string (Printf.sprintf "ring seed %d" seed) md5
        (Digest.to_hex (Digest.string (ring_text seed))))
    ring_known_answers

(* The event stream (one [Event.to_json] line per event, [seq] from 0)
   and the Chrome trace of every request of one cluster-faults-shaped run
   on a server trace, whose files are a small part of its id span:
   replicated metadata, loss, outages, crashes and a node leaving and
   rejoining.
   Both report file ids, so a renumbered id reaching either changes a
   hash. *)
let cluster_stream_md5 = "d6071a8c93fbc60a18b2c21f480c9f5b"
let cluster_chrome_md5 = "c23bc467249857cc996407ef5497a10a"

let test_cluster_known_answers () =
  let events = 6_000 and seed = 13 in
  let trace = Agg_workload.Generator.generate ~seed ~events Agg_workload.Profile.server in
  let sink = Sink.memory () in
  let ctx = Agg_obs.Trace_ctx.create ~sample:1.0 ~seed:7 () in
  let config =
    {
      Cluster.default_config with
      Cluster.nodes = 5;
      replicas = 3;
      ring_seed = seed;
      metadata = Cluster.Replicated_with_group;
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
      scope = Some (Agg_obs.Scope.create ~sink ~trace_ctx:ctx ());
    }
  in
  ignore (Cluster.run config trace);
  let text = Buffer.create (1 lsl 20) in
  List.iteri
    (fun seq e ->
      Buffer.add_string text (Agg_obs.Event.to_json ~seq e);
      Buffer.add_char text '\n')
    (Sink.events sink);
  check_string "event stream" cluster_stream_md5 (Digest.to_hex (Digest.string (Buffer.contents text)));
  check_string "chrome trace" cluster_chrome_md5
    (Digest.to_hex (Digest.string (Agg_obs.Trace_ctx.chrome_json ctx)))

(* --- label independence -------------------------------------------------- *)

(* [trace] with every file id mapped through a random injection into
   [base, base + 10^9), drawn from [seed]. *)
let relabel ~base ~seed trace =
  let g = Agg_util.Prng.create ~seed () in
  let image = Hashtbl.create 1024 and used = Hashtbl.create 1024 in
  let rec fresh () =
    let id = base + Agg_util.Prng.int g 1_000_000_000 in
    if Hashtbl.mem used id then fresh ()
    else begin
      Hashtbl.add used id ();
      id
    end
  in
  let map file =
    match Hashtbl.find_opt image file with
    | Some id -> id
    | None ->
        let id = fresh () in
        Hashtbl.add image file id;
        id
  in
  Agg_trace.Trace.of_events
    (List.map
       (fun (e : Agg_trace.Event.t) -> { e with Agg_trace.Event.file = map e.Agg_trace.Event.file })
       (Agg_trace.Trace.to_events trace))

(* On one node the ring sends every file to the same place, so no
   decision may depend on what a file's id is: a run on a trace and on
   the same trace relabelled must agree in every field. *)
let label_property ~name ~base =
  QCheck.Test.make ~name ~count:24
    QCheck.(triple (int_range 0 100_000) (int_range 0 2) (int_range 0 3))
    (fun (seed, which, profile) ->
      let config =
        match which with
        | 0 -> Cluster.path_config
        | 1 -> Cluster.default_config
        | _ -> { Cluster.default_config with Cluster.cooperative = true }
      in
      let trace =
        Agg_workload.Generator.generate ~seed ~events:1_500
          (List.nth Agg_workload.Profile.all profile)
      in
      Cluster.run config trace = Cluster.run config (relabel ~base ~seed trace))

let label_qcheck =
  [
    label_property ~name:"Cluster: a one-node run never reads the value of a file id" ~base:0;
    (* ids past 2^30 take the interner's side table *)
    label_property ~name:"Cluster: a one-node run on ids near 2^40 never reads their value"
      ~base:(1 lsl 40);
  ]

let test_cluster_telemetry_off_identity () =
  let trace = Lazy.force users_trace in
  let plain = Cluster.run (telemetry_config ()) trace in
  let instrumented =
    Cluster.run
      { (telemetry_config ()) with
        Cluster.scope =
          Some
            (Agg_obs.Scope.create
               ~series:(Agg_obs.Series.create ~window:500)
               ~trace_ctx:(Agg_obs.Trace_ctx.create ~sample:0.25 ~seed:3 ())
               ()) }
      trace
  in
  check_bool "instrumented run byte-identical to plain run" true (plain = instrumented)

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "basics" `Quick test_ring_basics;
          Alcotest.test_case "validation" `Quick test_ring_validation;
          Alcotest.test_case "group clamps" `Quick test_ring_group_clamps;
        ] );
      ( "fleet degeneracy",
        [
          Alcotest.test_case "reference model lockstep" `Quick
            test_one_node_matches_reference_model;
          Alcotest.test_case "healthy" `Quick test_recorded_healthy;
          Alcotest.test_case "hostile plan" `Quick test_recorded_hostile;
          Alcotest.test_case "plain lru" `Quick test_recorded_plain_lru;
          Alcotest.test_case "small clients, global metadata" `Quick test_recorded_small_global;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "accounting" `Quick test_fleet_accounting;
          Alcotest.test_case "write invalidation" `Quick test_fleet_write_invalidation;
          Alcotest.test_case "single client" `Quick test_fleet_single_client_matches_many_ids;
          Alcotest.test_case "aggregation reduces requests" `Quick
            test_fleet_aggregation_reduces_requests;
          Alcotest.test_case "invalid clients" `Quick test_fleet_invalid_clients;
        ] );
      ( "failover",
        [
          Alcotest.test_case "keeps serving under kills" `Quick
            test_cluster_keeps_serving_under_node_kills;
          Alcotest.test_case "placement axis" `Quick test_placement_axis;
        ] );
      ( "churn",
        [
          Alcotest.test_case "rebalances" `Quick test_churn_rebalances;
          Alcotest.test_case "huge node id" `Quick test_churn_huge_node_id;
          Alcotest.test_case "validation" `Quick test_churn_validation;
        ] );
      ("events", [ Alcotest.test_case "reconcile" `Quick test_reconcile_event_stream ]);
      ( "telemetry",
        [
          Alcotest.test_case "node loads reconcile" `Quick test_series_node_loads_reconcile;
          Alcotest.test_case "telemetry off is byte-identical" `Quick
            test_cluster_telemetry_off_identity;
        ] );
      ("sweep", [ Alcotest.test_case "jobs identity" `Quick test_sweep_jobs_identity ]);
      ( "known answers",
        [
          Alcotest.test_case "ring points, owners and groups" `Quick test_ring_known_answers;
          Alcotest.test_case "event stream and chrome trace" `Quick test_cluster_known_answers;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest (ring_qcheck @ label_qcheck));
    ]
