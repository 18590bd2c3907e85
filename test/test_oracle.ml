(* Tests for Agg_oracle: the reference models themselves, the lockstep
   differential engine, its shrinker, and the seeded-mutant smoke test.
   The heavy end-to-end differential run lives behind `aggsim
   differential` / the @differential alias; here we pin the machinery
   with crafted cases and qcheck state-machine properties. *)

open Agg_oracle
module Policy = Agg_cache.Policy
module Cache = Agg_cache.Cache
module Successor_list = Agg_successor.Successor_list

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = if i + n > h then false else String.sub haystack i n = needle || loop (i + 1) in
  loop 0

(* --- Model_cache on its own ------------------------------------------- *)

let unit_insert m ~pos key = Model_cache.insert m ~pos ~weight:Policy.unit_weight key

let test_model_lru_order () =
  let m = Model_cache.create Cache.Lru ~capacity:2 in
  Alcotest.(check (list int)) "no victim" [] (unit_insert m ~pos:Policy.Hot 1);
  Alcotest.(check (list int)) "no victim" [] (unit_insert m ~pos:Policy.Hot 2);
  Model_cache.promote m 1;
  Alcotest.(check (list int)) "lru victim" [ 2 ] (unit_insert m ~pos:Policy.Hot 3);
  check_bool "1 stays" true (Model_cache.mem m 1)

let test_model_cold_insert () =
  let m = Model_cache.create Cache.Lru ~capacity:3 in
  ignore (unit_insert m ~pos:Policy.Hot 1);
  ignore (unit_insert m ~pos:Policy.Cold 2);
  (* the cold member is the first to go *)
  Alcotest.(check int) "cold evicted first" 2 (Model_cache.evict m);
  check_int "size" 1 (Model_cache.size m)

let test_model_random_matches_seeded () =
  (* sharing the seed with the optimized Random policy means victims
     coincide exactly — that is what makes random diffable at all *)
  let m = Model_cache.create Cache.Random ~capacity:4 in
  let r = Agg_cache.Random_policy.create ~capacity:4 in
  for k = 0 to 3 do
    ignore (unit_insert m ~pos:Policy.Hot k);
    ignore (Agg_cache.Random_policy.insert r ~pos:Policy.Hot ~weight:Policy.unit_weight k)
  done;
  for k = 4 to 40 do
    Alcotest.(check (list int))
      "same victim"
      (Agg_cache.Random_policy.insert r ~pos:Policy.Hot ~weight:Policy.unit_weight k)
      (unit_insert m ~pos:Policy.Hot k)
  done

(* --- the differential engine ------------------------------------------ *)

let minimal_mutant_repro =
  [
    Diff_engine.Insert (Policy.Hot, Policy.unit_weight, 1);
    Diff_engine.Insert (Policy.Cold, Policy.unit_weight, 2);
    Diff_engine.Promote 2;
    Diff_engine.Evict;
  ]

let test_mutant_minimal_repro () =
  (* promote-to-cold-end flips the eviction order: correct LRU evicts 1,
     the mutant evicts the just-promoted 2 *)
  check_bool "mutant diverges" true
    (Option.is_some (Diff_engine.diff_ops_mutant ~capacity:2 minimal_mutant_repro));
  check_bool "real LRU agrees with model" true
    (Option.is_none (Diff_engine.diff_ops Cache.Lru ~capacity:2 minimal_mutant_repro))

let test_mutant_caught_by_fuzz () =
  let c = Diff_engine.mutant_check ~seed:3 ~ops:2_000 in
  check_bool "pass means caught" true c.Diff_engine.pass;
  check_bool "reports a shrunk repro" true (contains c.Diff_engine.detail "shrunk repro")

let test_shrunk_repro_still_fails () =
  (* the shrinker must return a failing list, and a 1-minimal one: no
     single further removal may still fail *)
  let prng = Agg_util.Prng.create ~seed:11 () in
  let ops = Diff_engine.gen_ops prng ~universe:12 ~count:400 in
  let fails candidate = Option.is_some (Diff_engine.diff_ops_mutant ~capacity:4 candidate) in
  check_bool "generated ops catch the mutant" true (fails ops);
  let minimal = Diff_engine.shrink_ops fails ops in
  check_bool "shrunk still fails" true (fails minimal);
  check_bool "shrunk no longer than input" true (List.length minimal <= List.length ops);
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) minimal in
      check_bool "1-minimal" false (fails without))
    minimal

let test_shrink_ops_plain_predicate () =
  let ops = List.init 50 (fun i -> if i mod 7 = 0 then Diff_engine.Evict else Diff_engine.Mem i) in
  let fails l = List.length (List.filter (fun o -> o = Diff_engine.Evict) l) >= 3 in
  let minimal = Diff_engine.shrink_ops fails ops in
  check_int "exactly the three needed ops remain" 3 (List.length minimal);
  check_bool "all evicts" true (List.for_all (fun o -> o = Diff_engine.Evict) minimal)

let test_gen_ops_deterministic () =
  let gen seed =
    Diff_engine.gen_ops (Agg_util.Prng.create ~seed ()) ~universe:10 ~count:50
  in
  check_bool "same seed, same ops" true (gen 5 = gen 5);
  check_bool "different seed, different ops" true (gen 5 <> gen 6)

(* --- qcheck: state-machine agreement per policy ----------------------- *)

let op_gen =
  let open QCheck.Gen in
  let key = int_bound 20 in
  frequency
    [
      (5, map (fun k -> Diff_engine.Insert (Policy.Hot, Policy.unit_weight, k)) key);
      (3, map (fun k -> Diff_engine.Insert (Policy.Cold, Policy.unit_weight, k)) key);
      (3, map (fun k -> Diff_engine.Promote k) key);
      (2, return Diff_engine.Evict);
      (2, map (fun k -> Diff_engine.Mem k) key);
      (1, return Diff_engine.Clear);
    ]

(* Shrinks to a minimal reproducible op list via QCheck's list shrinker;
   the printed counterexample is directly replayable through diff_ops. *)
let scenario_arbitrary =
  QCheck.make
    ~print:(fun (capacity, ops) ->
      Printf.sprintf "capacity=%d; %s" capacity (Diff_engine.ops_to_string ops))
    ~shrink:
      QCheck.Shrink.(pair int (list ~shrink:nil))
    QCheck.Gen.(pair (int_range 1 12) (list_size (int_bound 120) op_gen))

let agreement_properties =
  List.map
    (fun kind ->
      QCheck.Test.make
        ~name:(Printf.sprintf "%s agrees with its model on any op sequence" (Cache.kind_name kind))
        ~count:150 scenario_arbitrary
        (fun (capacity, ops) ->
          match Diff_engine.diff_ops kind ~capacity ops with
          | None -> true
          | Some d -> QCheck.Test.fail_reportf "step %d: %s" d.Diff_engine.step d.Diff_engine.detail))
    Cache.all_kinds

(* --- qcheck: successor models ----------------------------------------- *)

let successor_property policy pname =
  QCheck.Test.make
    ~name:(Printf.sprintf "successor %s list agrees with its model" pname)
    ~count:200
    QCheck.(pair (int_range 1 8) (list (QCheck.map (fun i -> abs i mod 12) int)))
    (fun (capacity, stream) ->
      let real = Successor_list.create ~capacity ~policy in
      let model = Model_successor.create ~capacity ~policy in
      List.for_all
        (fun s ->
          let mem_ok = Successor_list.mem real s = Model_successor.mem model s in
          Successor_list.observe real s;
          Model_successor.observe model s;
          mem_ok
          && Successor_list.ranked real = Model_successor.ranked model
          && Successor_list.top real = Model_successor.top model
          && Successor_list.size real = Model_successor.size model)
        stream)

let oracle_property =
  QCheck.Test.make ~name:"successor oracle agrees with its model" ~count:200
    QCheck.(list (pair (int_range 0 8) (int_range 0 8)))
    (fun pairs ->
      let real = Agg_successor.Oracle.create () in
      let model = Model_successor.Oracle.create () in
      List.for_all
        (fun (file, successor) ->
          let before =
            Agg_successor.Oracle.mem real ~file ~successor
            = Model_successor.Oracle.mem model ~file ~successor
          in
          Agg_successor.Oracle.observe real ~file ~successor;
          Model_successor.Oracle.observe model ~file ~successor;
          before
          && Agg_successor.Oracle.mem real ~file ~successor
             && Model_successor.Oracle.mem model ~file ~successor)
        pairs)

(* --- qcheck: the interned tracker vs its model ------------------------- *)

(* The Recency tracker interns each predecessor to the offset of its
   successor region the first time it precedes another file. The stream
   draws 320-479 distinct ids sparsely from [0, 2^17), over many pages of
   the intern table, and visits each once in shuffled order, so regions
   are laid out out of id order; 600 skewed draws from the same pool then
   grow, reorder and evict lists, relocating regions past the slot
   array's first block. Events come from three clients. After every observation the
   tracker and its model must agree on [successors], [top_successor] and
   [first_successor_outside] (against a random set) of the client's
   previous file, the observed file, a random pool file and an id never
   observed, and on [tracked_files]. The contexts are reset once,
   midway. *)
let tracker_property policy ~per_client name =
  QCheck.Test.make
    ~name:(Printf.sprintf "tracker agrees with the reference tracker on sparse ids (%s)" name)
    ~count:10
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 10))
    (fun (seed, capacity) ->
      let module Prng = Agg_util.Prng in
      let module Tracker = Agg_successor.Tracker in
      let g = Prng.create ~seed () in
      let pool =
        let seen = Hashtbl.create 512 in
        let size = 320 + Prng.int g 160 in
        while Hashtbl.length seen < size do
          Hashtbl.replace seen (Prng.int g (1 lsl 17)) ()
        done;
        let ids = Array.of_seq (Hashtbl.to_seq_keys seen) in
        Array.sort Int.compare ids;
        Prng.shuffle g ids;
        ids
      in
      let n = Array.length pool in
      let stream =
        Array.init (n + 600) (fun i ->
            let file =
              if i < n then pool.(i)
              else if Prng.bool g then pool.(Prng.int g 16)
              else pool.(Prng.int g n)
            in
            (Prng.int g 3, file))
      in
      let unseen = (1 lsl 17) + 5 in
      let real = Tracker.create ~capacity ~policy ~per_client () in
      let model = Model_system.Tracker.create ~per_client ~capacity ~policy () in
      let last = Array.make 3 (-1) in
      let agree file =
        let expected = Model_system.Tracker.successors model file in
        let candidates = Array.of_list (unseen :: expected) in
        let set = Array.init (Prng.int g 4) (fun _ -> Prng.choose g candidates) in
        let len = Prng.int g (Array.length set + 1) in
        let in_set s = Array.exists (Int.equal s) (Array.sub set 0 len) in
        let first_outside =
          match List.find_opt (fun s -> not (in_set s)) expected with Some s -> s | None -> -1
        in
        Tracker.successors real file = expected
        && Tracker.top_successor real file
           = (match expected with [] -> None | s :: _ -> Some s)
        && Tracker.first_successor_outside real file set ~len = first_outside
      in
      let ok = ref true in
      Array.iteri
        (fun i (client, file) ->
          if i = n + 300 then begin
            Tracker.reset_context real;
            Model_system.Tracker.reset_context model;
            Array.fill last 0 3 (-1)
          end;
          Tracker.observe real ~client file;
          Model_system.Tracker.observe model ~client file;
          let context = if per_client then client else 0 in
          let prev = last.(context) in
          last.(context) <- file;
          if !ok then
            ok :=
              (prev < 0 || agree prev)
              && agree file
              && agree pool.(Prng.int g n)
              && agree unseen
              && Tracker.tracked_files real = Model_system.Tracker.tracked_files model)
        stream;
      !ok
      && Tracker.tracked_files real >= 300)

(* --- the tracker's region relocations ------------------------------------

   A Recency list starts in a one-slot region and moves to a region twice
   the size each time a new successor finds it full, up to [capacity].
   File 0 is followed by 14 new successors, so at capacity 10 its list
   passes through regions of 1, 2, 4, 8 and 10 slots and then evicts, and
   at capacity 3 through 1, 2 and 3. Each step also re-observes a
   resident successor (no relocation) and gives file 50 a new successor,
   so regions interleave and a stale or overlapping copy would show. After
   every observe, real and model must agree on every file seen and on
   one never seen. *)
let test_tracker_relocations () =
  let module Tracker = Agg_successor.Tracker in
  List.iter
    (fun capacity ->
      let real = Tracker.create ~capacity () in
      let model = Model_system.Tracker.create ~capacity ~policy:Successor_list.Recency () in
      let stream =
        List.concat_map
          (fun k -> [ 0; 100 + k; 0; 100 + ((k + 1) / 2); 50; 200 + k ])
          (List.init 14 succ)
      in
      let files = List.sort_uniq Int.compare (999 :: stream) in
      let agree step file =
        let expected = Model_system.Tracker.successors model file in
        let where = Printf.sprintf "capacity %d, step %d, file %d" capacity step file in
        Alcotest.(check (list int))
          (where ^ ": successors") expected (Tracker.successors real file);
        Alcotest.(check (option int))
          (where ^ ": top successor")
          (match expected with [] -> None | s :: _ -> Some s)
          (Tracker.top_successor real file);
        (* sets of every prefix of the list, with an id outside it *)
        List.iteri
          (fun len _ ->
            let set = Array.of_list (999 :: List.filteri (fun i _ -> i < len) expected) in
            let first_outside =
              match List.filteri (fun i _ -> i >= len) expected with s :: _ -> s | [] -> -1
            in
            Alcotest.(check int)
              (Printf.sprintf "%s: first successor outside %d" where len)
              first_outside
              (Tracker.first_successor_outside real file set ~len:(len + 1)))
          (0 :: expected)
      in
      List.iteri
        (fun step file ->
          Tracker.observe real file;
          Model_system.Tracker.observe model file;
          List.iter (agree step) files)
        stream;
      Alcotest.(check int)
        (Printf.sprintf "capacity %d: file 0's list is full" capacity)
        capacity
        (List.length (Tracker.successors real 0)))
    [ 3; 10 ]

(* --- qcheck: group construction vs the reference builder -------------- *)

(* Group_builder reads the tracker's slots in place; the reference
   rebuilds every group from the ranked successor lists. After each
   observation both build the group of every file in the universe (and of
   one file never seen), for every group size 1-10. *)
let group_builder_property policy pname =
  QCheck.Test.make
    ~name:(Printf.sprintf "group builder agrees with the reference builder (%s metadata)" pname)
    ~count:100
    QCheck.(
      triple (int_range 1 8) (int_range 2 24)
        (list_of_size (QCheck.Gen.int_bound 120) (QCheck.map abs int)))
    (fun (capacity, universe, stream) ->
      let tracker = Agg_successor.Tracker.create ~capacity ~policy () in
      let successors = Agg_successor.Tracker.successors tracker in
      List.for_all
        (fun raw ->
          Agg_successor.Tracker.observe tracker (raw mod universe);
          List.for_all
            (fun group_size ->
              List.for_all
                (fun file ->
                  Agg_core.Group_builder.build tracker ~group_size file
                  = Model_system.build_group ~successors ~group_size file)
                (List.init (universe + 1) Fun.id))
            (List.init 10 (fun i -> i + 1)))
        stream)

(* The same law through [build_into] and one buffer reused by every call:
   before each build, a group-size-10 build of another file leaves the
   buffer dirty, and the build must write only its own prefix. *)
let group_builder_into_property policy pname =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "group builder into a dirty buffer agrees with the reference builder (%s metadata)"
         pname)
    ~count:100
    QCheck.(
      triple (int_range 1 8) (int_range 2 24)
        (list_of_size (QCheck.Gen.int_bound 120) (QCheck.map abs int)))
    (fun (capacity, universe, stream) ->
      let tracker = Agg_successor.Tracker.create ~capacity ~policy () in
      let successors = Agg_successor.Tracker.successors tracker in
      let buf = Array.make 12 (-7) in
      List.for_all
        (fun raw ->
          Agg_successor.Tracker.observe tracker (raw mod universe);
          List.for_all
            (fun group_size ->
              List.for_all
                (fun file ->
                  ignore
                    (Agg_core.Group_builder.build_into tracker ~group_size:10
                       ((file + 1) mod (universe + 1))
                       buf);
                  let before = Array.copy buf in
                  let len = Agg_core.Group_builder.build_into tracker ~group_size file buf in
                  Array.to_list (Array.sub buf 0 len)
                  = Model_system.build_group ~successors ~group_size file
                  && Array.sub buf len (12 - len) = Array.sub before len (12 - len))
                (List.init (universe + 1) Fun.id))
            (List.init 10 (fun i -> i + 1)))
        stream)

(* --- qcheck: the aggregating client vs its model ---------------------- *)

let client_property =
  QCheck.Test.make ~name:"aggregating client agrees with its model" ~count:60
    QCheck.(
      triple (int_range 2 10) (int_range 1 6)
        (list_of_size (QCheck.Gen.int_bound 200) (QCheck.map (fun i -> abs i mod 20) int)))
    (fun (capacity, group_size, accesses) ->
      let config = Agg_core.Config.with_group_size group_size Agg_core.Config.default in
      let real = Agg_core.Client_cache.create ~config ~capacity () in
      let model = Model_system.Client.create ~config ~capacity () in
      List.for_all
        (fun file ->
          Agg_core.Client_cache.access real file = Model_system.Client.access model file)
        accesses
      && Agg_core.Client_cache.metrics real = Model_system.Client.metrics model)

(* --- end-to-end calibrated-trace differential (small budget) ---------- *)

let test_trace_checks_small () =
  let checks =
    Diff_engine.successor_checks ~seed:7 ~events:1_200
    @ Diff_engine.trace_checks ~seed:7 ~events:1_200
  in
  check_bool "some checks ran" true (List.length checks > 50);
  List.iter
    (fun (c : Diff_engine.check) ->
      check_bool (Printf.sprintf "%s: %s" c.Diff_engine.name c.Diff_engine.detail) true
        c.Diff_engine.pass)
    checks

(* --- weighted differentials ------------------------------------------- *)

let check_all_pass checks =
  check_bool "some checks ran" true (checks <> []);
  List.iter
    (fun (c : Diff_engine.check) ->
      check_bool (Printf.sprintf "%s: %s" c.Diff_engine.name c.Diff_engine.detail) true
        c.Diff_engine.pass)
    checks

let test_weighted_fuzz_kinds () =
  (* every built-in kind lifted to weights agrees with its model under
     mixed-weight op sequences (oversize bypass + multi-victim paths) *)
  check_all_pass
    (List.map (Diff_engine.fuzz_policy_weighted ~seed:23 ~ops:600) Agg_cache.Cache.all_kinds)

let test_weighted_fuzz_baselines () =
  check_all_pass
    (List.map (Diff_engine.fuzz_weighted_policy ~seed:29 ~ops:800) Diff_engine.all_weighted_policies)

let test_landlord_witness () =
  (* Landlord's credit drain and the heap-indexed GreedyDual-Size form
     agree victim for victim wherever every float step is exact *)
  check_all_pass [ Diff_engine.landlord_witness ~seed:37 ~ops:5_000 ]

let test_lru_equivalence () =
  (* Landlord/Bundle at unit weights must be LRU access for access *)
  check_all_pass (Diff_engine.lru_equivalence_checks ~seed:31 ~events:1_500)

let qcheck_tests =
  agreement_properties
  @ [
      successor_property Successor_list.Recency "recency";
      successor_property Successor_list.Frequency "frequency";
      oracle_property;
      tracker_property Successor_list.Recency ~per_client:false "recency, global context";
      tracker_property Successor_list.Recency ~per_client:true "recency, per-client contexts";
      tracker_property Successor_list.Frequency ~per_client:false "frequency, global context";
      tracker_property Successor_list.Frequency ~per_client:true "frequency, per-client contexts";
      group_builder_property Successor_list.Recency "recency";
      group_builder_property Successor_list.Frequency "frequency";
      group_builder_into_property Successor_list.Recency "recency";
      group_builder_into_property Successor_list.Frequency "frequency";
      client_property;
    ]

let () =
  Alcotest.run "agg_oracle"
    [
      ( "model_cache",
        [
          Alcotest.test_case "lru order" `Quick test_model_lru_order;
          Alcotest.test_case "cold insert" `Quick test_model_cold_insert;
          Alcotest.test_case "random shares the seed" `Quick test_model_random_matches_seeded;
        ] );
      ( "engine",
        [
          Alcotest.test_case "mutant minimal repro" `Quick test_mutant_minimal_repro;
          Alcotest.test_case "mutant caught by fuzz" `Quick test_mutant_caught_by_fuzz;
          Alcotest.test_case "shrunk repro still fails" `Quick test_shrunk_repro_still_fails;
          Alcotest.test_case "shrinker on a plain predicate" `Quick test_shrink_ops_plain_predicate;
          Alcotest.test_case "gen_ops deterministic" `Quick test_gen_ops_deterministic;
          Alcotest.test_case "calibrated traces (small)" `Slow test_trace_checks_small;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "relocation through every region size" `Quick
            test_tracker_relocations;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "mixed-weight fuzz, built-in kinds" `Quick test_weighted_fuzz_kinds;
          Alcotest.test_case "mixed-weight fuzz, weighted baselines" `Quick
            test_weighted_fuzz_baselines;
          Alcotest.test_case "unit weights are lru" `Quick test_lru_equivalence;
          Alcotest.test_case "landlord drain matches its gds form" `Quick test_landlord_witness;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
