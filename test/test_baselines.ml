(* Tests for the related-work baselines: last-successor and first-order
   Markov predictors, and the Griffioen–Appleton probability-graph
   prefetcher. *)

open Agg_baselines

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let repeat n pattern = Array.concat (List.init n (fun _ -> Array.of_list pattern))

(* --- Last_successor ---------------------------------------------------- *)

let test_last_successor_learns_cycle () =
  let a = Last_successor.measure (repeat 100 [ 1; 2; 3 ]) in
  (* after the first cycle every prediction is right *)
  check_bool "high accuracy" true (Last_successor.accuracy_rate a > 0.95);
  check_int "predictions + cold = events - 1" 299 (a.Last_successor.predictions + a.Last_successor.no_prediction)

let test_last_successor_adapts_immediately () =
  let t = Last_successor.create () in
  List.iter (Last_successor.observe t) [ 1; 2; 1; 3 ];
  (* 1's most recent successor is now 3, not 2 *)
  check_bool "adapted" true (Last_successor.predict t 1 = Some 3)

let test_last_successor_no_prediction_for_unknown () =
  let t = Last_successor.create () in
  check_bool "unknown" true (Last_successor.predict t 42 = None)

let test_accuracy_rate_zero_predictions () =
  check_float "empty" 0.0
    (Last_successor.accuracy_rate { Last_successor.predictions = 0; correct = 0; no_prediction = 3 })

(* --- Markov_predictor ---------------------------------------------------- *)

let test_markov_predicts_most_frequent () =
  let t = Markov_predictor.create () in
  List.iter (Markov_predictor.observe t) [ 1; 2; 1; 2; 1; 3 ];
  (* counts for 1: 2 twice, 3 once *)
  check_bool "most frequent" true (Markov_predictor.predict t 1 = Some 2)

let test_markov_slow_to_adapt () =
  (* after a long stable phase the successor changes for good; the
     frequency predictor stays stuck while last-successor adapts at once *)
  let phase1 = repeat 50 [ 1; 2 ] in
  let phase2 = repeat 10 [ 1; 3 ] in
  let files = Array.append phase1 phase2 in
  let markov = Markov_predictor.measure files in
  let last = Last_successor.measure files in
  check_bool "recency adapts better on drift" true
    (Last_successor.accuracy_rate last > Last_successor.accuracy_rate markov)

let test_markov_measure_counts () =
  let a = Markov_predictor.measure (repeat 30 [ 7; 8; 9 ]) in
  check_bool "accurate on cycle" true (Last_successor.accuracy_rate a > 0.9)

(* --- Prob_graph ------------------------------------------------------------- *)

let test_prob_graph_chance () =
  let pg = Prob_graph.create ~lookahead:2 ~threshold:0.5 ~capacity:10 () in
  (* drive 1 2 3 1 2 3: within lookahead 2 of each access *)
  Array.iter (fun f -> ignore (Prob_graph.access pg f)) (repeat 10 [ 1; 2; 3 ]);
  check_bool "1 -> 2 strong" true (Prob_graph.chance pg ~src:1 ~dst:2 > 0.8);
  check_bool "1 -> 3 within window" true (Prob_graph.chance pg ~src:1 ~dst:3 > 0.5);
  check_float "unrelated" 0.0 (Prob_graph.chance pg ~src:1 ~dst:99)

let test_prob_graph_prefetches_reduce_fetches () =
  let run threshold =
    let pg = Prob_graph.create ~threshold ~capacity:6 () in
    let m = Prob_graph.run pg (Agg_trace.Trace.of_files (Array.to_list (repeat 200 (List.init 10 Fun.id)))) in
    m.Agg_core.Metrics.demand_fetches
  in
  let no_prefetch =
    let cache = Agg_cache.Cache.create Agg_cache.Cache.Lru ~capacity:6 in
    Array.fold_left
      (fun acc f -> if Agg_cache.Cache.access cache f then acc else acc + 1)
      0
      (repeat 200 (List.init 10 Fun.id))
  in
  check_bool "prefetching beats plain lru on cyclic scan" true (run 0.1 < no_prefetch)

let test_prob_graph_metrics_identities () =
  let pg = Prob_graph.create ~capacity:8 () in
  let trace =
    Agg_workload.Generator.generate ~seed:2 ~events:3000 Agg_workload.Profile.workstation
  in
  let m = Prob_graph.run pg trace in
  check_int "accesses" 3000 m.Agg_core.Metrics.accesses;
  check_int "hits+misses" 3000 (m.Agg_core.Metrics.hits + m.Agg_core.Metrics.demand_fetches);
  check_bool "used <= issued" true
    (m.Agg_core.Metrics.prefetch.Agg_core.Metrics.used
    <= m.Agg_core.Metrics.prefetch.Agg_core.Metrics.issued)

let test_prob_graph_threshold_gates_prefetch () =
  (* with threshold 1.0 only sure-thing successors are prefetched; an
     alternating successor (half/half) must not be *)
  let pg = Prob_graph.create ~lookahead:1 ~threshold:1.0 ~capacity:10 () in
  Array.iter (fun f -> ignore (Prob_graph.access pg f)) (repeat 20 [ 1; 2; 1; 3 ]);
  let m = Prob_graph.metrics pg in
  check_int "nothing prefetched" 0 m.Agg_core.Metrics.prefetch.Agg_core.Metrics.issued

let test_prob_graph_validation () =
  Alcotest.check_raises "lookahead 0"
    (Invalid_argument "Prob_graph.create: lookahead must be positive") (fun () ->
      ignore (Prob_graph.create ~lookahead:0 ~capacity:4 ()));
  Alcotest.check_raises "threshold 0"
    (Invalid_argument "Prob_graph.create: threshold must be in (0, 1]") (fun () ->
      ignore (Prob_graph.create ~threshold:0.0 ~capacity:4 ()))

(* --- Ppm ------------------------------------------------------------------ *)

let test_ppm_uses_context () =
  (* 'a' is followed by b after x, by c after y: order-1 cannot separate
     them, order-2 can *)
  let t = Ppm.create ~max_order:2 () in
  let feed = [ 8; 1; 2; 9; 1; 3; 8; 1; 2; 9; 1; 3; 8; 1 ] in
  List.iter (Ppm.observe t) feed;
  (* current context is [1; 8] (most recent first): next should be 2 *)
  check_bool "context disambiguates" true (Ppm.predict t = Some 2)

let test_ppm_falls_back_to_shorter_context () =
  let t = Ppm.create ~max_order:2 () in
  List.iter (Ppm.observe t) [ 1; 2; 1; 2; 1 ];
  (* context [1; 2] was seen; but after feeding a brand-new preceding
     file the order-2 context is unknown and order 1 must answer *)
  List.iter (Ppm.observe t) [ 99; 1 ];
  check_bool "order-1 fallback" true (Ppm.predict t = Some 2)

let test_ppm_beats_last_successor_on_contextual_pattern () =
  let pattern = [ 8; 1; 2; 9; 1; 3 ] in
  let files = repeat 200 pattern in
  let ppm = Ppm.measure files in
  let ls = Last_successor.measure files in
  check_bool "ppm wins when context matters" true
    (Last_successor.accuracy_rate ppm > Last_successor.accuracy_rate ls);
  check_bool "ppm near perfect here" true (Last_successor.accuracy_rate ppm > 0.95)

let test_ppm_measure_counts () =
  let a = Ppm.measure (repeat 50 [ 1; 2; 3 ]) in
  check_int "every non-initial position attempted" 149
    (a.Last_successor.predictions + a.Last_successor.no_prediction)

let test_ppm_validation () =
  Alcotest.check_raises "order 0" (Invalid_argument "Ppm.create: max_order must be positive")
    (fun () -> ignore (Ppm.create ~max_order:0 ()));
  check_int "max_order stored" 3 (Ppm.max_order (Ppm.create ~max_order:3 ()))

(* --- weighted policies: Landlord, Bundle ----------------------------------- *)

open Agg_cache.Policy

let w ~size ~cost = { Agg_cache.Policy.size; cost }
let check_victims = Alcotest.(check (list int))

let test_landlord_multi_victim () =
  (* capacity 4: a(2,2) and b(2,4) resident; c(4,1) needs the whole
     cache. a has the lower credit/size ratio (1 vs 2) and goes first;
     the rent drained making room (delta 1 x size 2) leaves b at credit
     2, which the second round evicts. Exact victim order pins the rent
     accounting. *)
  let t = Landlord.create ~capacity:4 in
  check_victims "a fits" [] (Landlord.insert t ~pos:Hot ~weight:(w ~size:2 ~cost:2) 1);
  check_victims "b fits" [] (Landlord.insert t ~pos:Hot ~weight:(w ~size:2 ~cost:4) 2);
  check_victims "hot-first before" [ 2; 1 ] (Landlord.contents t);
  check_victims "c evicts a then b" [ 1; 2 ]
    (Landlord.insert t ~pos:Hot ~weight:(w ~size:4 ~cost:1) 3);
  check_victims "only c resident" [ 3 ] (Landlord.contents t);
  check_int "used" 4 (Landlord.used t)

let test_landlord_charge_overrides_recency () =
  (* b is hotter than a, but a was re-credited to 10 on a hit; the
     rent-based victim is the cheap one, not the cold one. *)
  let t = Landlord.create ~capacity:2 in
  ignore (Landlord.insert t ~pos:Hot ~weight:(w ~size:1 ~cost:1) 1);
  ignore (Landlord.insert t ~pos:Hot ~weight:(w ~size:1 ~cost:5) 2);
  Landlord.charge t 1 ~cost:10;
  check_victims "cheap b evicted, not cold a" [ 2 ]
    (Landlord.insert t ~pos:Hot ~weight:(w ~size:1 ~cost:1) 3);
  check_victims "contents" [ 3; 1 ] (Landlord.contents t)

let test_landlord_oversize_bypass () =
  let t = Landlord.create ~capacity:4 in
  ignore (Landlord.insert t ~pos:Hot ~weight:(w ~size:2 ~cost:3) 1);
  check_victims "oversize evicts nothing" [] (Landlord.insert t ~pos:Hot ~weight:(w ~size:5 ~cost:9) 2);
  check_bool "oversize not admitted" false (Landlord.mem t 2);
  check_bool "resident untouched" true (Landlord.mem t 1)

let test_landlord_unit_is_lru () =
  (* at unit weights Landlord must match LRU access for access,
     including victim identity *)
  let ll = Landlord.create ~capacity:3 in
  let lru = Agg_cache.Lru.create ~capacity:3 in
  let serve : type a. (module Agg_cache.Policy.S with type t = a) -> a -> int -> int list =
   fun (module P) t k ->
    if P.mem t k then begin
      P.promote t k;
      P.charge t k ~cost:1;
      []
    end
    else P.insert t ~pos:Agg_cache.Policy.Hot ~weight:Agg_cache.Policy.unit_weight k
  in
  List.iter
    (fun k ->
      let v_ll = serve (module Landlord) ll k in
      let v_lru = serve (module Agg_cache.Lru) lru k in
      check_victims "same victims" v_lru v_ll;
      check_victims "same contents" (Agg_cache.Lru.contents lru) (Landlord.contents ll))
    [ 1; 2; 3; 4; 2; 5; 1; 1; 6; 3; 2 ]

let test_gds_cost_over_recency_and_inflation () =
  (* Landlord in its GreedyDual-Size form: H = inflation + cost/size. b
     is the most recent insert but has the lowest H and is evicted
     first; its H becomes the inflation floor, which is what lets the
     later cheap d displace the once-expensive a. *)
  let t = Landlord.create ~capacity:2 in
  ignore (Landlord.insert t ~pos:Hot ~weight:(w ~size:1 ~cost:4) 1);
  ignore (Landlord.insert t ~pos:Hot ~weight:(w ~size:1 ~cost:2) 2);
  check_victims "cheapest H evicted despite recency" [ 2 ]
    (Landlord.insert t ~pos:Hot ~weight:(w ~size:1 ~cost:3) 3);
  (* inflation is now 2: H(a)=4, H(c)=2+3=5, so d(cost 1, H=4+1=5
     after the next round) evicts a *)
  check_victims "inflation unlocks the expensive file" [ 1 ]
    (Landlord.insert t ~pos:Hot ~weight:(w ~size:1 ~cost:1) 4);
  check_bool "c survives" true (Landlord.mem t 3);
  check_bool "d resident" true (Landlord.mem t 4)

let test_landlord_ties_follow_recency () =
  (* Four residents at equal H: the victim must be the coldest by the
     recency order as the heap stamps record it, after a promote and
     after a cold reposition alike. *)
  let t = Landlord.create ~capacity:4 in
  List.iter (fun k -> ignore (Landlord.insert t ~pos:Hot ~weight:(w ~size:1 ~cost:2) k)) [ 1; 2; 3; 4 ];
  Landlord.charge t 1 ~cost:2;
  check_victims "a re-credit keeps the recency order" [ 4; 3; 2; 1 ] (Landlord.contents t);
  Landlord.promote t 1;
  check_victims "promoted key leaves the cold end" [ 1; 4; 3; 2 ] (Landlord.contents t);
  Alcotest.(check int) "coldest of the tie" 2 (Landlord.evict t);
  check_victims "cold reposition" [] (Landlord.insert t ~pos:Cold ~weight:(w ~size:1 ~cost:9) 4);
  check_victims "repositioned key at the cold end" [ 1; 3; 4 ] (Landlord.contents t);
  Alcotest.(check int) "cold-repositioned key goes first" 4 (Landlord.evict t);
  Landlord.promote t 3;
  Alcotest.(check int) "then the unpromoted one" 1 (Landlord.evict t);
  check_victims "last resident" [ 3 ] (Landlord.contents t)

let test_landlord_huge_capacity () =
  (* A byte-valued capacity: the policy is sized by its residents, so
     [max_int] allocates nothing up front, and the room test cannot
     overflow however close [used] gets to the capacity. *)
  let t = Landlord.create ~capacity:max_int in
  let half = max_int / 2 and quarter = max_int / 4 in
  check_victims "half fits" [] (Landlord.insert t ~pos:Hot ~weight:(w ~size:half ~cost:3) 1);
  check_victims "quarter fits" [] (Landlord.insert t ~pos:Hot ~weight:(w ~size:quarter ~cost:1) 2);
  check_victims "small fits" [] (Landlord.insert t ~pos:Hot ~weight:(w ~size:1 ~cost:5) 3);
  check_int "used" (half + quarter + 1) (Landlord.used t);
  (* cost/size: 2 is cheapest per unit, and its eviction frees enough *)
  check_victims "room by rent" [ 2 ] (Landlord.insert t ~pos:Cold ~weight:(w ~size:half ~cost:2) 4);
  check_int "used after" (half + half + 1) (Landlord.used t);
  check_victims "a full-capacity file evicts everyone, cheapest H first" [ 1; 4; 3 ]
    (Landlord.insert t ~pos:Hot ~weight:(w ~size:max_int ~cost:1) 5);
  check_int "exactly full" max_int (Landlord.used t);
  Alcotest.(check int) "evict" 5 (Landlord.evict t);
  check_int "empty" 0 (Landlord.used t)

let test_bundle_request_semantics () =
  let unit_of _ = Agg_cache.Policy.unit_weight in
  let b = Bundle.create ~capacity:4 in
  (* duplicates served once, members inserted hot in first-occurrence
     order *)
  check_victims "first bundle fits" [] (Bundle.request_bundle b ~weight_of:unit_of [ 1; 2; 1; 3 ]);
  check_victims "hot order after bundle" [ 3; 2; 1 ] (Bundle.contents b);
  (* resident 2 is promoted (and re-credited), missing 4 inserted hot *)
  check_victims "partial bundle fits" [] (Bundle.request_bundle b ~weight_of:unit_of [ 2; 4 ]);
  check_victims "promotion order" [ 4; 2; 3; 1 ] (Bundle.contents b);
  (* a size-2 newcomer at full capacity drains rent from everyone:
     coldest residents go, in recency order *)
  check_victims "two victims from cold end" [ 1; 3 ]
    (Bundle.request_bundle b
       ~weight_of:(fun _ -> w ~size:2 ~cost:1)
       [ 5 ]);
  check_victims "survivors" [ 5; 4; 2 ] (Bundle.contents b);
  check_int "used at capacity" 4 (Bundle.used b)

(* Drive one policy through a random weighted op sequence, checking
   after every operation that the conservation invariant holds and that
   [used] really is the sum of the resident sizes. *)
let conserves (module P : Agg_cache.Policy.S) ~capacity ops =
  let t = P.create ~capacity in
  let recorded = Hashtbl.create 16 in
  List.for_all
    (fun (key, size, cost) ->
      let weight = w ~size ~cost in
      if P.mem t key then begin
        P.promote t key;
        P.charge t key ~cost
      end
      else if P.insert t ~pos:(if key mod 3 = 0 then Cold else Hot) ~weight key <> [] || P.mem t key
      then Hashtbl.replace recorded key size;
      let sum =
        List.fold_left
          (fun acc k -> acc + (try Hashtbl.find recorded k with Not_found -> 1))
          0 (P.contents t)
      in
      P.used t <= P.capacity t && P.used t = sum)
    ops

(* --- qcheck properties --------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  let files_gen = list_of_size (Gen.int_range 10 300) (int_range 0 25) in
  let weighted_ops =
    pair
      (list_of_size (Gen.int_range 20 150)
         (triple (int_range 0 20) (int_range 1 5) (int_range 1 9)))
      (int_range 3 15)
  in
  [
    Test.make ~name:"last-successor accuracy within [0,1]" ~count:100 files_gen (fun files ->
        let a = Last_successor.measure (Array.of_list files) in
        let r = Last_successor.accuracy_rate a in
        r >= 0.0 && r <= 1.0 && a.Last_successor.correct <= a.Last_successor.predictions);
    Test.make ~name:"markov accuracy within [0,1]" ~count:100 files_gen (fun files ->
        let a = Markov_predictor.measure (Array.of_list files) in
        let r = Last_successor.accuracy_rate a in
        r >= 0.0 && r <= 1.0);
    Test.make ~name:"landlord conserves capacity" ~count:100 weighted_ops (fun (ops, capacity) ->
        conserves (module Landlord) ~capacity ops);
    Test.make ~name:"bundle conserves capacity" ~count:100 weighted_ops (fun (ops, capacity) ->
        conserves (module Bundle) ~capacity ops);
    (let keys = pair (list_of_size (Gen.int_range 10 120) (int_range 0 15)) (int_range 4 20) in
     (* weights must be a stable function of the key: bundles re-credit
        residents with [weight_of key] *)
     let weight_of k = w ~size:(1 + (k mod 4)) ~cost:(1 + (k mod 7)) in
     Test.make ~name:"bundle singletons coincide with landlord" ~count:100 keys
       (fun (keys, capacity) ->
         let b = Bundle.create ~capacity and l = Landlord.create ~capacity in
         List.for_all
           (fun k ->
             let weight = weight_of k in
             let vl =
               if Landlord.mem l k then begin
                 Landlord.promote l k;
                 Landlord.charge l k ~cost:weight.Agg_cache.Policy.cost;
                 []
               end
               else Landlord.insert l ~pos:Hot ~weight k
             in
             let vb = Bundle.request_bundle b ~weight_of [ k ] in
             vb = vl && Bundle.contents b = Landlord.contents l && Bundle.used b = Landlord.used l)
           keys));
    Test.make ~name:"prob_graph chance within [0,1]" ~count:60 files_gen (fun files ->
        let pg = Prob_graph.create ~capacity:8 () in
        List.iter (fun f -> ignore (Prob_graph.access pg f)) files;
        List.for_all
          (fun src ->
            List.for_all
              (fun dst ->
                let c = Prob_graph.chance pg ~src ~dst in
                c >= 0.0 && c <= 1.0)
              (List.sort_uniq compare files))
          (List.sort_uniq compare files));
  ]

let () =
  Alcotest.run "agg_baselines"
    [
      ( "last_successor",
        [
          Alcotest.test_case "learns cycle" `Quick test_last_successor_learns_cycle;
          Alcotest.test_case "adapts immediately" `Quick test_last_successor_adapts_immediately;
          Alcotest.test_case "unknown file" `Quick test_last_successor_no_prediction_for_unknown;
          Alcotest.test_case "zero predictions" `Quick test_accuracy_rate_zero_predictions;
        ] );
      ( "markov",
        [
          Alcotest.test_case "most frequent" `Quick test_markov_predicts_most_frequent;
          Alcotest.test_case "slow to adapt" `Quick test_markov_slow_to_adapt;
          Alcotest.test_case "measure counts" `Quick test_markov_measure_counts;
        ] );
      ( "ppm",
        [
          Alcotest.test_case "uses context" `Quick test_ppm_uses_context;
          Alcotest.test_case "fallback to shorter context" `Quick
            test_ppm_falls_back_to_shorter_context;
          Alcotest.test_case "beats last-successor with context" `Quick
            test_ppm_beats_last_successor_on_contextual_pattern;
          Alcotest.test_case "measure counts" `Quick test_ppm_measure_counts;
          Alcotest.test_case "validation" `Quick test_ppm_validation;
        ] );
      ( "prob_graph",
        [
          Alcotest.test_case "chance" `Quick test_prob_graph_chance;
          Alcotest.test_case "prefetch reduces fetches" `Quick
            test_prob_graph_prefetches_reduce_fetches;
          Alcotest.test_case "metric identities" `Quick test_prob_graph_metrics_identities;
          Alcotest.test_case "threshold gates" `Quick test_prob_graph_threshold_gates_prefetch;
          Alcotest.test_case "validation" `Quick test_prob_graph_validation;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "landlord multi-victim order" `Quick test_landlord_multi_victim;
          Alcotest.test_case "landlord charge beats recency" `Quick
            test_landlord_charge_overrides_recency;
          Alcotest.test_case "landlord oversize bypass" `Quick test_landlord_oversize_bypass;
          Alcotest.test_case "landlord at unit weights is lru" `Quick test_landlord_unit_is_lru;
          Alcotest.test_case "greedy-dual cost and inflation" `Quick
            test_gds_cost_over_recency_and_inflation;
          Alcotest.test_case "bundle request semantics" `Quick test_bundle_request_semantics;
          Alcotest.test_case "landlord ties follow recency" `Quick
            test_landlord_ties_follow_recency;
          Alcotest.test_case "landlord at capacity max_int" `Quick test_landlord_huge_capacity;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
