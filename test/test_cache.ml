(* Tests for the cache substrate: every replacement policy, the
   statistics wrapper (including the group-block insertion that the
   aggregating cache depends on), Belady's optimal, and the two-level
   composition. *)

open Agg_cache

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

(* Drive a demand-access sequence through a Cache.t, returning hit flags. *)
let drive cache keys = List.map (Cache.access cache) keys

(* --- generic policy laws, checked for every kind -------------------- *)

let policy_kinds = Cache.all_kinds

let test_capacity_never_exceeded () =
  List.iter
    (fun kind ->
      let cache = Cache.create kind ~capacity:5 in
      for i = 0 to 99 do
        ignore (Cache.access cache (i mod 23))
      done;
      check_bool (Cache.kind_name kind ^ " size<=capacity") true (Cache.size cache <= 5))
    policy_kinds

let test_hit_iff_resident () =
  List.iter
    (fun kind ->
      let cache = Cache.create kind ~capacity:4 in
      ignore (Cache.access cache 1);
      check_bool (Cache.kind_name kind ^ " resident hit") true (Cache.access cache 1);
      check_bool (Cache.kind_name kind ^ " absent miss") false (Cache.access cache 2))
    policy_kinds

let test_stats_identities () =
  List.iter
    (fun kind ->
      let cache = Cache.create kind ~capacity:3 in
      for i = 0 to 49 do
        ignore (Cache.access cache (i mod 7))
      done;
      let s = Cache.stats cache in
      check_int (Cache.kind_name kind ^ " hits+misses") s.Cache.accesses (s.Cache.hits + s.Cache.misses);
      check_int (Cache.kind_name kind ^ " accesses") 50 s.Cache.accesses;
      check_bool
        (Cache.kind_name kind ^ " evictions<=insertions")
        true
        (s.Cache.evictions <= s.Cache.insertions))
    policy_kinds

let test_remove_and_clear () =
  List.iter
    (fun kind ->
      let cache = Cache.create kind ~capacity:4 in
      ignore (Cache.access cache 1);
      ignore (Cache.access cache 2);
      Cache.remove cache 1;
      check_bool (Cache.kind_name kind ^ " removed") false (Cache.mem cache 1);
      Cache.clear cache;
      check_int (Cache.kind_name kind ^ " cleared") 0 (Cache.size cache);
      check_int (Cache.kind_name kind ^ " stats reset") 0 (Cache.stats cache).Cache.accesses)
    policy_kinds

let test_mem_does_not_mutate () =
  List.iter
    (fun kind ->
      let cache = Cache.create kind ~capacity:2 in
      ignore (Cache.access cache 1);
      check_bool "probe" true (Cache.mem cache 1);
      check_int (Cache.kind_name kind ^ " probe not counted") 1 (Cache.stats cache).Cache.accesses)
    policy_kinds

let test_invalid_capacity () =
  Alcotest.check_raises "lru cap 0" (Invalid_argument "Lru.create: capacity must be positive")
    (fun () -> ignore (Cache.create Cache.Lru ~capacity:0))

let test_kind_names_roundtrip () =
  List.iter
    (fun kind ->
      match Cache.kind_of_string (Cache.kind_name kind) with
      | Some k -> check_bool "roundtrip" true (k = kind)
      | None -> Alcotest.fail "kind name should parse")
    policy_kinds;
  check_bool "unknown kind" true (Cache.kind_of_string "optimal" = None)

(* Cold reposition of a resident key (the speculative-member path hitting
   data that is already cached) must reposition only: no eviction, no
   size change, key still resident. Pinned per policy at the Policy.S
   level, where ~pos is exposed. *)
let policy_modules : (string * (module Policy.S)) list =
  [
    ("lru", (module Lru));
    ("lfu", (module Lfu));
    ("fifo", (module Fifo));
    ("mru", (module Mru));
    ("clock", (module Clock));
    ("random", (module Random_policy));
    ("mq", (module Mq));
    ("slru", (module Slru));
    ("twoq", (module Twoq));
    ("arc", (module Arc));
  ]

let test_cold_reposition_never_evicts () =
  List.iter
    (fun (name, (module P : Policy.S)) ->
      let t = P.create ~capacity:3 in
      ignore (P.insert t ~pos:Policy.Hot ~weight:Policy.unit_weight 1);
      ignore (P.insert t ~pos:Policy.Hot ~weight:Policy.unit_weight 2);
      ignore (P.insert t ~pos:Policy.Hot ~weight:Policy.unit_weight 3);
      Alcotest.(check (list int)) (name ^ " reposition returns no victims") []
        (P.insert t ~pos:Policy.Cold ~weight:Policy.unit_weight 2);
      check_int (name ^ " size unchanged") 3 (P.size t);
      check_bool (name ^ " still resident") true (P.mem t 2))
    policy_modules

let test_cold_reposition_demotes () =
  (* Where the demotion itself is observable, pin the next victim: the
     repositioned key becomes first to go everywhere it has an ordered
     cold end (2q keeps it inside its current queue and random ignores
     position entirely, so both are covered by the no-evict law above);
     mru's victim end is the hot end, so its victim stays the newest key. *)
  List.iter
    (fun (name, (module P : Policy.S), expected) ->
      let t = P.create ~capacity:3 in
      ignore (P.insert t ~pos:Policy.Hot ~weight:Policy.unit_weight 1);
      ignore (P.insert t ~pos:Policy.Hot ~weight:Policy.unit_weight 2);
      ignore (P.insert t ~pos:Policy.Hot ~weight:Policy.unit_weight 3);
      ignore (P.insert t ~pos:Policy.Cold ~weight:Policy.unit_weight 2);
      Alcotest.(check (option int)) (name ^ " next victim") (Some expected) (P.evict t))
    [
      ("lru", (module Lru : Policy.S), 2);
      ("lfu", (module Lfu : Policy.S), 2);
      ("fifo", (module Fifo : Policy.S), 2);
      ("clock", (module Clock : Policy.S), 2);
      ("slru", (module Slru : Policy.S), 2);
      ("mq", (module Mq : Policy.S), 2);
      ("arc", (module Arc : Policy.S), 2);
      ("mru", (module Mru : Policy.S), 3);
    ]

(* --- LRU specifics --------------------------------------------------- *)

let test_lru_evicts_least_recent () =
  let cache = Cache.create Cache.Lru ~capacity:3 in
  ignore (drive cache [ 1; 2; 3 ]);
  ignore (Cache.access cache 1);
  (* 2 is now the LRU entry *)
  ignore (Cache.access cache 4);
  (* evicts 2 *)
  check_bool "2 evicted" false (Cache.mem cache 2);
  check_bool "1 kept" true (Cache.mem cache 1);
  check_bool "3 kept" true (Cache.mem cache 3)

let test_lru_contents_order () =
  let cache = Cache.create Cache.Lru ~capacity:3 in
  ignore (drive cache [ 1; 2; 3 ]);
  ignore (Cache.access cache 2);
  check_list "MRU first" [ 2; 3; 1 ] (Cache.contents cache)

(* LRU inclusion property: a larger LRU cache hits whenever a smaller one
   does. *)
let test_lru_inclusion_property () =
  let prng = Agg_util.Prng.create ~seed:4 () in
  let trace = Array.init 2000 (fun _ -> Agg_util.Prng.int prng 60) in
  let small = Cache.create Cache.Lru ~capacity:8 in
  let large = Cache.create Cache.Lru ~capacity:16 in
  Array.iter
    (fun key ->
      let hit_small = Cache.access small key in
      let hit_large = Cache.access large key in
      if hit_small then check_bool "small hit implies large hit" true hit_large)
    trace

(* --- LFU specifics --------------------------------------------------- *)

let test_lfu_evicts_least_frequent () =
  let cache = Cache.create Cache.Lfu ~capacity:2 in
  ignore (Cache.access cache 1);
  ignore (Cache.access cache 1);
  ignore (Cache.access cache 2);
  ignore (Cache.access cache 3);
  (* 2 has in-cache count 1, 1 has count 2: 2 is the victim *)
  check_bool "2 evicted" false (Cache.mem cache 2);
  check_bool "1 kept" true (Cache.mem cache 1);
  check_bool "3 resident" true (Cache.mem cache 3)

let test_lfu_frequency_counter () =
  let lfu = Lfu.create ~capacity:4 in
  ignore (Lfu.insert lfu ~pos:Policy.Hot ~weight:Policy.unit_weight 9);
  Lfu.promote lfu 9;
  Lfu.promote lfu 9;
  Alcotest.(check (option int)) "count" (Some 3) (Lfu.frequency lfu 9)

let test_lfu_cold_insert_is_first_victim () =
  let cache = Cache.create Cache.Lfu ~capacity:3 in
  ignore (Cache.access cache 1);
  ignore (Cache.access cache 2);
  Cache.insert_cold cache 3;
  (* frequency 0 *)
  ignore (Cache.access cache 4);
  (* must evict the speculative 3, not the demanded 1 or 2 *)
  check_bool "cold member evicted first" false (Cache.mem cache 3);
  check_bool "1 kept" true (Cache.mem cache 1);
  check_bool "2 kept" true (Cache.mem cache 2)

let test_lfu_min_bucket_crosses_gap () =
  (* counts 0 and 500 with nothing between: after the count-0 victim
     the minimum bucket must jump straight to 500 *)
  let lfu = Lfu.create ~capacity:2 in
  ignore (Lfu.insert lfu ~pos:Policy.Hot ~weight:Policy.unit_weight 1);
  for _ = 2 to 500 do
    Lfu.promote lfu 1
  done;
  ignore (Lfu.insert lfu ~pos:Policy.Cold ~weight:Policy.unit_weight 2);
  Alcotest.(check (option int)) "count 500" (Some 500) (Lfu.frequency lfu 1);
  Alcotest.(check (option int)) "count 0" (Some 0) (Lfu.frequency lfu 2);
  Alcotest.(check (option int)) "first victim" (Some 2) (Lfu.evict lfu);
  Alcotest.(check (option int)) "across the gap" (Some 1) (Lfu.evict lfu);
  Alcotest.(check (option int)) "empty" None (Lfu.evict lfu);
  ignore (Lfu.insert lfu ~pos:Policy.Hot ~weight:Policy.unit_weight 3);
  Alcotest.(check (option int)) "fresh bucket after emptying" (Some 1) (Lfu.frequency lfu 3)

let test_lfu_cold_reposition_resets () =
  let lfu = Lfu.create ~capacity:4 in
  ignore (Lfu.insert lfu ~pos:Policy.Cold ~weight:Policy.unit_weight 1);
  ignore (Lfu.insert lfu ~pos:Policy.Cold ~weight:Policy.unit_weight 2);
  ignore (Lfu.insert lfu ~pos:Policy.Hot ~weight:Policy.unit_weight 3);
  Lfu.promote lfu 3;
  Alcotest.(check (list int)) "cold reposition never evicts" []
    (Lfu.insert lfu ~pos:Policy.Cold ~weight:Policy.unit_weight 3);
  Alcotest.(check (option int)) "count reset" (Some 0) (Lfu.frequency lfu 3);
  (* a resident already at count 0 also moves to the back of bucket 0 *)
  ignore (Lfu.insert lfu ~pos:Policy.Cold ~weight:Policy.unit_weight 1);
  Alcotest.(check (list int)) "back of bucket 0" [ 1; 3; 2 ] (Lfu.contents lfu);
  Alcotest.(check (option int)) "oldest tick first" (Some 2) (Lfu.evict lfu);
  Alcotest.(check (option int)) "then the reset key" (Some 3) (Lfu.evict lfu);
  Alcotest.(check (option int)) "then the re-reset key" (Some 1) (Lfu.evict lfu)

let test_lfu_contents_order () =
  let lfu = Lfu.create ~capacity:5 in
  let hot k = ignore (Lfu.insert lfu ~pos:Policy.Hot ~weight:Policy.unit_weight k) in
  hot 1;
  hot 2;
  hot 3;
  Lfu.promote lfu 1;
  ignore (Lfu.insert lfu ~pos:Policy.Cold ~weight:Policy.unit_weight 4);
  Lfu.promote lfu 2;
  hot 5;
  (* (count, tick): 1=(2,4) 2=(2,6) 3=(1,3) 4=(0,5) 5=(1,7) *)
  Alcotest.(check (list int)) "descending (count, tick)" [ 2; 1; 5; 3; 4 ] (Lfu.contents lfu)

(* --- FIFO / MRU / CLOCK / Random ------------------------------------- *)

let test_fifo_ignores_accesses () =
  let cache = Cache.create Cache.Fifo ~capacity:2 in
  ignore (drive cache [ 1; 2 ]);
  ignore (Cache.access cache 1);
  (* a hit must not save 1 from FIFO order *)
  ignore (Cache.access cache 3);
  check_bool "1 evicted despite recent hit" false (Cache.mem cache 1);
  check_bool "2 kept" true (Cache.mem cache 2)

let test_mru_evicts_most_recent () =
  let cache = Cache.create Cache.Mru ~capacity:2 in
  ignore (drive cache [ 1; 2 ]);
  ignore (Cache.access cache 3);
  (* MRU victim is 2, the most recently touched *)
  check_bool "2 evicted" false (Cache.mem cache 2);
  check_bool "1 kept" true (Cache.mem cache 1)

let test_clock_second_chance () =
  let cache = Cache.create Cache.Clock ~capacity:3 in
  ignore (drive cache [ 1; 2; 3 ]);
  (* all reference bits set; the next miss sweeps them clear and, FIFO-
     like, evicts the oldest *)
  ignore (Cache.access cache 4);
  check_bool "oldest evicted on full sweep" false (Cache.mem cache 1);
  (* rereference 2: its bit is set again, so the next miss passes over it
     (second chance) and takes 3 *)
  check_bool "2 rereferenced" true (Cache.access cache 2);
  ignore (Cache.access cache 5);
  check_bool "2 survives via reference bit" true (Cache.mem cache 2);
  check_bool "3 evicted" false (Cache.mem cache 3)

let test_clock_slot_reuse_mixed_sizes () =
  (* Six slots; the size-2 and size-3 residents leave slots empty, so
     the hand's victim sweep skips holes and new keys take the first
     free slot at or after the hand, wrapping. [contents] is slot
     order. *)
  let c = Clock.create ~capacity:6 in
  let put k size = Clock.insert c ~pos:Policy.Hot ~weight:{ Policy.size; cost = 1 } k in
  List.iter (fun (k, size) -> check_list "fits" [] (put k size)) [ (1, 1); (2, 2); (3, 2); (4, 1) ];
  check_list "slots 0-3" [ 1; 2; 3; 4 ] (Clock.contents c);
  (* the sweep clears every bit, skips empty slots 4-5 and wraps *)
  check_list "second chances spent, then 1 and 2" [ 1; 2 ] (put 5 3);
  check_list "first free slot after the hand" [ 3; 4; 5 ] (Clock.contents c);
  check_list "hand moves on to 3" [ 3 ] (put 6 1);
  check_list "slot 5" [ 4; 5; 6 ] (Clock.contents c);
  check_list "room without eviction" [] (put 7 1);
  check_list "free search wrapped to slot 0" [ 7; 4; 5; 6 ] (Clock.contents c);
  check_list "next victim at the hand" [ 4 ] (put 8 1);
  check_list "slot 1, not the vacated slot 3" [ 7; 8; 5; 6 ] (Clock.contents c)

let test_clock_free_slot_wraps_words () =
  (* 130 slots span three bitset words: a search starting in the second
     word must find a hole in the third before wrapping to the first. *)
  let c = Clock.create ~capacity:130 in
  for k = 0 to 129 do
    ignore (Clock.insert c ~pos:Policy.Hot ~weight:Policy.unit_weight k)
  done;
  for k = 0 to 99 do
    Alcotest.(check (option int)) "sweep order" (Some k) (Clock.evict c)
  done;
  let put k = ignore (Clock.insert c ~pos:Policy.Hot ~weight:Policy.unit_weight k) in
  put 1000;
  check_int "wrapped to slot 0" 1000 (List.hd (Clock.contents c));
  Clock.remove c 125;
  put 1001;
  put 1002;
  let contents = Clock.contents c in
  check_list "slot order" ([ 1000; 1002 ] @ List.init 25 (fun i -> 100 + i) @ [ 1001 ] @ [ 126; 127; 128; 129 ])
    contents

let test_random_deterministic_with_seed () =
  let run () =
    let p = Random_policy.create_seeded ~capacity:4 ~seed:11 in
    let evicted = ref [] in
    for i = 0 to 19 do
      match Random_policy.insert p ~pos:Policy.Hot ~weight:Policy.unit_weight i with
      | [ v ] -> evicted := v :: !evicted
      | _ -> ()
    done;
    !evicted
  in
  check_list "same seed, same evictions" (run ()) (run ())

(* --- MQ / SLRU / 2Q (second-level policies) --------------------------- *)

let test_mq_frequency_tiers () =
  let mq = Mq.create_tuned ~capacity:8 ~queues:4 ~lifetime:1000 ~ghost_factor:4 in
  ignore (Mq.insert mq ~pos:Policy.Hot ~weight:Policy.unit_weight 1);
  Alcotest.(check (option int)) "1 hit -> queue 0" (Some 0) (Mq.queue_of mq 1);
  Mq.promote mq 1;
  Alcotest.(check (option int)) "2 hits -> queue 1" (Some 1) (Mq.queue_of mq 1);
  Mq.promote mq 1;
  Mq.promote mq 1;
  Alcotest.(check (option int)) "4 hits -> queue 2" (Some 2) (Mq.queue_of mq 1)

let test_mq_protects_frequent_blocks () =
  let cache = Cache.create Cache.Mq ~capacity:4 in
  (* make 1 frequent *)
  for _ = 1 to 8 do
    ignore (Cache.access cache 1)
  done;
  (* stream one-timers through: 1 must survive in a higher queue *)
  for i = 100 to 120 do
    ignore (Cache.access cache i)
  done;
  check_bool "frequent block survives scan" true (Cache.mem cache 1)

let test_mq_ghost_restores_standing () =
  (* capacity 1: eviction is forced on every new insert *)
  let mq = Mq.create_tuned ~capacity:1 ~queues:4 ~lifetime:1000 ~ghost_factor:8 in
  ignore (Mq.insert mq ~pos:Policy.Hot ~weight:Policy.unit_weight 1);
  Mq.promote mq 1;
  (* count 2 -> queue 1 *)
  ignore (Mq.insert mq ~pos:Policy.Hot ~weight:Policy.unit_weight 2);
  check_bool "1 evicted" false (Mq.mem mq 1);
  (* when 1 returns, the ghost buffer restores its frequency standing:
     remembered count 2 + 1 = 3 -> queue 1, not queue 0 *)
  ignore (Mq.insert mq ~pos:Policy.Hot ~weight:Policy.unit_weight 1);
  Alcotest.(check (option int)) "ghost count restored" (Some 1) (Mq.queue_of mq 1)

let test_mq_lifetime_demotes () =
  let mq = Mq.create_tuned ~capacity:4 ~queues:4 ~lifetime:2 ~ghost_factor:4 in
  ignore (Mq.insert mq ~pos:Policy.Hot ~weight:Policy.unit_weight 1);
  Mq.promote mq 1;
  Alcotest.(check (option int)) "starts in queue 1" (Some 1) (Mq.queue_of mq 1);
  (* four unrelated accesses age 1 past its 2-access lifetime *)
  for i = 10 to 13 do
    ignore (Mq.insert mq ~pos:Policy.Hot ~weight:Policy.unit_weight i)
  done;
  Alcotest.(check (option int)) "demoted to queue 0" (Some 0) (Mq.queue_of mq 1)

let test_slru_promotion () =
  let slru = Slru.create ~capacity:6 in
  ignore (Slru.insert slru ~pos:Policy.Hot ~weight:Policy.unit_weight 1);
  check_bool "new arrival is probationary" false (Slru.protected_resident slru 1);
  Slru.promote slru 1;
  check_bool "hit promotes to protected" true (Slru.protected_resident slru 1)

let test_slru_scan_resistance () =
  let cache = Cache.create Cache.Slru ~capacity:6 in
  (* build a protected working set of 2 *)
  List.iter (fun k -> ignore (Cache.access cache k)) [ 1; 2; 1; 2 ];
  (* scan 20 one-timers through a 6-entry cache *)
  for i = 100 to 119 do
    ignore (Cache.access cache i)
  done;
  check_bool "1 survives the scan" true (Cache.mem cache 1);
  check_bool "2 survives the scan" true (Cache.mem cache 2)

let test_slru_protected_overflow_demotes () =
  let slru = Slru.create ~capacity:3 in
  (* protected capacity = 2 *)
  List.iter
    (fun k ->
      ignore (Slru.insert slru ~pos:Policy.Hot ~weight:Policy.unit_weight k);
      Slru.promote slru k)
    [ 1; 2; 3 ];
  (* promoting 3 overflows the protected segment; its LRU (1) demotes *)
  check_bool "3 protected" true (Slru.protected_resident slru 3);
  check_bool "1 demoted but resident" true (Slru.mem slru 1 && not (Slru.protected_resident slru 1))

let test_twoq_admission () =
  let q = Twoq.create ~capacity:8 in
  ignore (Twoq.insert q ~pos:Policy.Hot ~weight:Policy.unit_weight 1);
  check_bool "first touch goes to A1in" false (Twoq.in_main q 1);
  Twoq.promote q 1;
  check_bool "A1in hit does not promote" false (Twoq.in_main q 1)

let test_twoq_ghost_promotes_on_return () =
  let q = Twoq.create ~capacity:4 in
  (* a1in quota = 1; reclaiming starts only when the cache is full *)
  List.iter (fun k -> ignore (Twoq.insert q ~pos:Policy.Hot ~weight:Policy.unit_weight k)) [ 1; 2; 3; 4; 5 ];
  (* the 5th insert reclaimed from the over-quota A1in: 1 went to A1out *)
  check_bool "1 evicted to ghost" false (Twoq.mem q 1);
  ignore (Twoq.insert q ~pos:Policy.Hot ~weight:Policy.unit_weight 1);
  check_bool "returning key admitted to main" true (Twoq.in_main q 1)

let test_twoq_scan_resistance () =
  let cache = Cache.create Cache.Twoq ~capacity:8 in
  (* push 1 through A1in into the ghost, then bring it back into Am *)
  ignore (Cache.access cache 1);
  for i = 100 to 107 do
    ignore (Cache.access cache i)
  done;
  ignore (Cache.access cache 1);
  (* long scan of one-timers: the main-queue entry must survive because
     reclamation keeps coming from the over-quota A1in *)
  for i = 200 to 239 do
    ignore (Cache.access cache i)
  done;
  check_bool "main-queue entry survives scan" true (Cache.mem cache 1)

let test_arc_two_touches_reach_t2 () =
  let arc = Arc.create ~capacity:4 in
  ignore (Arc.insert arc ~pos:Policy.Hot ~weight:Policy.unit_weight 1);
  check_bool "first touch in T1" false (Arc.in_t2 arc 1);
  Arc.promote arc 1;
  check_bool "second touch in T2" true (Arc.in_t2 arc 1)

let test_arc_ghost_hit_adapts_target () =
  let arc = Arc.create ~capacity:2 in
  (* 1 becomes frequent (T2); 2 passes through T1 and is REPLACEd into
     the B1 ghost when 3 arrives *)
  ignore (Arc.insert arc ~pos:Policy.Hot ~weight:Policy.unit_weight 1);
  Arc.promote arc 1;
  ignore (Arc.insert arc ~pos:Policy.Hot ~weight:Policy.unit_weight 2);
  ignore (Arc.insert arc ~pos:Policy.Hot ~weight:Policy.unit_weight 3);
  check_bool "2 no longer resident" false (Arc.mem arc 2);
  check_int "target starts at 0" 0 (Arc.target arc);
  (* a B1 ghost hit grows the recency target and revives 2 into T2 *)
  ignore (Arc.insert arc ~pos:Policy.Hot ~weight:Policy.unit_weight 2);
  check_bool "revived" true (Arc.mem arc 2);
  check_bool "revived into T2" true (Arc.in_t2 arc 2);
  check_bool "target grew" true (Arc.target arc > 0)

let test_arc_discards_t1_lru_when_t1_full () =
  (* canonical case IV: when T1 alone fills the cache, its LRU is
     discarded outright, not remembered in B1 — so an immediate return is
     a plain cold miss *)
  let arc = Arc.create ~capacity:2 in
  ignore (Arc.insert arc ~pos:Policy.Hot ~weight:Policy.unit_weight 1);
  ignore (Arc.insert arc ~pos:Policy.Hot ~weight:Policy.unit_weight 2);
  ignore (Arc.insert arc ~pos:Policy.Hot ~weight:Policy.unit_weight 3);
  ignore (Arc.insert arc ~pos:Policy.Hot ~weight:Policy.unit_weight 1);
  check_bool "no ghost memory of 1" true (Arc.mem arc 1 && not (Arc.in_t2 arc 1));
  check_int "target unchanged" 0 (Arc.target arc)

let test_arc_scan_resistance () =
  let cache = Cache.create Cache.Arc ~capacity:8 in
  (* establish a reused pair in T2 *)
  List.iter (fun k -> ignore (Cache.access cache k)) [ 1; 2; 1; 2 ];
  for i = 100 to 139 do
    ignore (Cache.access cache i)
  done;
  check_bool "frequent keys survive a scan" true (Cache.mem cache 1 && Cache.mem cache 2)

(* --- group-block insertion (the aggregating-cache primitive) -------- *)

let test_group_members_do_not_evict_each_other () =
  let cache = Cache.create Cache.Lru ~capacity:10 in
  for i = 0 to 9 do
    ignore (Cache.access cache i)
  done;
  (* full cache; now a demand miss plus a group of 4 members *)
  ignore (Cache.access cache 100);
  let admitted = Cache.insert_cold_group cache [ 101; 102; 103; 104 ] in
  check_list "all members admitted" [ 101; 102; 103; 104 ] admitted;
  List.iter
    (fun m -> check_bool (string_of_int m ^ " resident") true (Cache.mem cache m))
    [ 100; 101; 102; 103; 104 ]

let test_group_eviction_order () =
  let cache = Cache.create Cache.Lru ~capacity:5 in
  ignore (Cache.access cache 0);
  ignore (Cache.insert_cold_group cache [ 1; 2; 3; 4 ]);
  (* next demand insert must evict the deepest (least likely) member: 4 *)
  ignore (Cache.access cache 50);
  check_bool "member 4 evicted first" false (Cache.mem cache 4);
  check_bool "member 1 still resident" true (Cache.mem cache 1)

let test_group_capped_at_capacity_minus_one () =
  let cache = Cache.create Cache.Lru ~capacity:3 in
  ignore (Cache.access cache 0);
  let admitted = Cache.insert_cold_group cache [ 1; 2; 3; 4; 5 ] in
  check_list "only capacity-1 members admitted" [ 1; 2 ] admitted;
  check_bool "demanded file survives its own group" true (Cache.mem cache 0)

let test_group_skips_residents_and_duplicates () =
  let cache = Cache.create Cache.Lru ~capacity:10 in
  ignore (Cache.access cache 1);
  let admitted = Cache.insert_cold_group cache [ 1; 2; 2; 3 ] in
  check_list "resident and duplicate filtered" [ 2; 3 ] admitted;
  let s = Cache.stats cache in
  check_int "speculative counted" 2 s.Cache.speculative_insertions

let test_insert_hot_no_access_count () =
  let cache = Cache.create Cache.Lru ~capacity:4 in
  Cache.insert_hot cache 1;
  check_bool "resident" true (Cache.mem cache 1);
  check_int "no access recorded" 0 (Cache.stats cache).Cache.accesses

(* --- Belady ----------------------------------------------------------- *)

let test_belady_crafted () =
  (* capacity 2, trace 1 2 3 1 2: fetching 3 must evict the entry whose
     next use is furthest (2, used at position 4), so position 3's access
     to 1 hits and position 4's access to 2 misses — exactly one hit. *)
  let r = Belady.simulate ~capacity:2 [| 1; 2; 3; 1; 2 |] in
  check_int "hits" 1 r.Belady.hits;
  check_int "misses" 4 r.Belady.misses;
  check_int "accesses" 5 r.Belady.accesses;
  (* a trace where MIN visibly beats LRU: capacity 2, 1 2 1 2 3 1 2 —
     LRU evicts 1 when 3 arrives, MIN evicts 3's loser 2?  Check the
     canonical case: 1 2 3 1 2 3 under capacity 2 gives LRU zero hits,
     MIN two. *)
  let min = Belady.simulate ~capacity:2 [| 1; 2; 3; 1; 2; 3 |] in
  let lru = Cache.create Cache.Lru ~capacity:2 in
  let lru_hits =
    List.fold_left (fun acc k -> if Cache.access lru k then acc + 1 else acc) 0 [ 1; 2; 3; 1; 2; 3 ]
  in
  check_int "lru thrashes" 0 lru_hits;
  check_int "min hits twice" 2 min.Belady.hits

let test_belady_capacity_one () =
  let r = Belady.simulate ~capacity:1 [| 1; 1; 2; 2; 1 |] in
  check_int "hits" 2 r.Belady.hits

let test_belady_beats_lru () =
  (* MIN is optimal: on any trace it has at least as many hits as LRU. *)
  let prng = Agg_util.Prng.create ~seed:77 () in
  for _ = 1 to 25 do
    let n = 200 + Agg_util.Prng.int prng 200 in
    let trace = Array.init n (fun _ -> Agg_util.Prng.int prng 40) in
    let capacity = 2 + Agg_util.Prng.int prng 12 in
    let optimal = Belady.simulate ~capacity trace in
    let lru = Cache.create Cache.Lru ~capacity in
    let lru_hits =
      Array.fold_left (fun acc k -> if Cache.access lru k then acc + 1 else acc) 0 trace
    in
    check_bool "belady >= lru" true (optimal.Belady.hits >= lru_hits)
  done

let test_belady_invalid () =
  Alcotest.check_raises "cap 0" (Invalid_argument "Belady.simulate: capacity must be positive")
    (fun () -> ignore (Belady.simulate ~capacity:0 [| 1 |]))

(* --- Multilevel -------------------------------------------------------- *)

let test_multilevel_outcomes () =
  let ml =
    Multilevel.create
      ~client:(Cache.create Cache.Lru ~capacity:1)
      ~server:(Cache.create Cache.Lru ~capacity:2)
  in
  check_bool "first access misses everywhere" true (Multilevel.access ml 1 = Multilevel.Server_miss);
  check_bool "client hit" true (Multilevel.access ml 1 = Multilevel.Client_hit);
  check_bool "2 misses" true (Multilevel.access ml 2 = Multilevel.Server_miss);
  (* 1 was evicted from the 1-entry client but the server still holds it *)
  check_bool "server hit" true (Multilevel.access ml 1 = Multilevel.Server_hit)

let test_multilevel_hit_rate () =
  let ml =
    Multilevel.create
      ~client:(Cache.create Cache.Lru ~capacity:1)
      ~server:(Cache.create Cache.Lru ~capacity:4)
  in
  List.iter (fun k -> ignore (Multilevel.access ml k)) [ 1; 2; 1; 2; 1; 2 ];
  (* client absorbs nothing (alternating), server hits after warm-up *)
  check_bool "server rate in (0,1)" true
    (Multilevel.server_hit_rate ml > 0.0 && Multilevel.server_hit_rate ml < 1.0);
  Multilevel.reset_stats ml;
  check_int "reset" 0 (Cache.stats (Multilevel.server ml)).Cache.accesses

(* --- arena ports vs the pre-arena pointer implementation ---------------- *)

(* The boxed implementation the pure-recency policies had before the
   arena port, re-derived in test scope over a plain OCaml list of keys,
   front = hot end. The three flavours differ only in whether accesses
   promote ([`Fifo] ignores them, including a [Hot] re-insert) and which
   end evicts ([`Mru] the front). The arena-backed ports must match it
   operation for operation, including the exact [contents] order — a
   stronger pin than the order-free [Oracle.Model_cache] agreement. *)
module Pointer = struct
  type t = { flavour : [ `Lru | `Fifo | `Mru ]; capacity : int; mutable order : int list }

  let create flavour ~capacity = { flavour; capacity; order = [] }
  let size t = List.length t.order
  let mem t key = List.mem key t.order
  let without t key = List.filter (( <> ) key) t.order
  let to_front t key = t.order <- key :: without t key
  let to_back t key = t.order <- without t key @ [ key ]

  let promote t key =
    match t.flavour with `Fifo -> () | `Lru | `Mru -> if mem t key then to_front t key

  let evict t =
    match (t.flavour, t.order) with
    | _, [] -> None
    | `Mru, key :: rest ->
        t.order <- rest;
        Some key
    | (`Lru | `Fifo), order ->
        let key = List.nth order (List.length order - 1) in
        t.order <- without t key;
        Some key

  let insert t ~pos key =
    if mem t key then begin
      (match (pos, t.flavour) with
      | Policy.Hot, `Fifo -> ()
      | Policy.Hot, (`Lru | `Mru) -> to_front t key
      | Policy.Cold, _ -> to_back t key);
      None
    end
    else begin
      let victim = if size t >= t.capacity then evict t else None in
      (match pos with Policy.Hot -> to_front t key | Policy.Cold -> to_back t key);
      victim
    end

  let remove t key = t.order <- without t key
  let contents t = t.order
end

let pointer_agreement name flavour (module P : Policy.S) =
  QCheck.Test.make
    ~name:(name ^ " arena port matches the pointer implementation exactly")
    ~count:200
    QCheck.(pair (int_range 1 10) (list (pair (int_range 0 4) (int_range 0 25))))
    (fun (capacity, ops) ->
      let real = P.create ~capacity in
      let model = Pointer.create flavour ~capacity in
      List.for_all
        (fun (op, key) ->
          let step_ok =
            match op with
            | 0 ->
                P.promote real key;
                Pointer.promote model key;
                true
            | 1 ->
                P.insert real ~pos:Policy.Hot ~weight:Policy.unit_weight key
                = Option.to_list (Pointer.insert model ~pos:Policy.Hot key)
            | 2 ->
                P.insert real ~pos:Policy.Cold ~weight:Policy.unit_weight key
                = Option.to_list (Pointer.insert model ~pos:Policy.Cold key)
            | 3 -> P.evict real = Pointer.evict model
            | _ ->
                P.remove real key;
                Pointer.remove model key;
                true
          in
          step_ok
          && P.size real = Pointer.size model
          && P.mem real key = Pointer.mem model key
          && P.contents real = Pointer.contents model)
        ops)

(* --- weighted facade ----------------------------------------------------- *)

(* Sizes/costs for the crafted weighted tests: 1->(2,2), 2->(2,4),
   3->(4,1), everything else unit. *)
let crafted_weight k =
  match k with
  | 1 -> { Policy.size = 2; cost = 2 }
  | 2 -> { Policy.size = 2; cost = 4 }
  | 3 -> { Policy.size = 4; cost = 1 }
  | _ -> Policy.unit_weight

let test_weighted_multi_victim_contents () =
  (* Weighted_of_unit makes room by repeated core evictions: the size-4
     newcomer pushes out both residents in LRU order. *)
  let cache = Cache.create ~weight_of:crafted_weight Cache.Lru ~capacity:4 in
  check_bool "miss 1" false (Cache.access cache 1);
  check_bool "miss 2" false (Cache.access cache 2);
  check_bool "miss 3" false (Cache.access cache 3);
  check_list "only the size-4 file survives" [ 3 ] (Cache.contents cache);
  check_int "used" 4 (Cache.used cache);
  let w = Cache.weighted_stats cache in
  check_int "bytes accessed" 8 w.Cache.bytes_accessed;
  check_int "bytes hit" 0 w.Cache.bytes_hit;
  check_int "cost fetched" 7 w.Cache.cost_fetched;
  check_int "nothing prefetched" 0 w.Cache.cost_prefetched

let test_weighted_hit_accounting () =
  let cache = Cache.create ~weight_of:crafted_weight Cache.Lru ~capacity:8 in
  ignore (Cache.access cache 1);
  ignore (Cache.access cache 2);
  check_bool "hit" true (Cache.access cache 1);
  let w = Cache.weighted_stats cache in
  check_int "bytes accessed" 6 w.Cache.bytes_accessed;
  check_int "bytes hit" 2 w.Cache.bytes_hit;
  check_int "cost fetched only for misses" 6 w.Cache.cost_fetched

let test_weighted_oversize_bypass () =
  (* a file larger than the whole cache is fetched (cost counted) but
     never admitted, and evicts nothing *)
  let weight_of k = if k = 9 then { Policy.size = 5; cost = 3 } else Policy.unit_weight in
  let cache = Cache.create ~weight_of Cache.Lru ~capacity:4 in
  ignore (Cache.access cache 1);
  check_bool "oversize misses" false (Cache.access cache 9);
  check_bool "not admitted" false (Cache.mem cache 9);
  check_bool "resident untouched" true (Cache.mem cache 1);
  let w = Cache.weighted_stats cache in
  check_int "its fetch is still paid" 4 w.Cache.cost_fetched

let test_weighted_unit_stats_mirror () =
  (* without weight_of the byte counters mirror the unweighted ones *)
  let cache = Cache.create Cache.Lru ~capacity:3 in
  List.iter (fun k -> ignore (Cache.access cache k)) [ 1; 2; 1; 3; 4; 1 ];
  let s = Cache.stats cache and w = Cache.weighted_stats cache in
  check_int "bytes = accesses" s.Cache.accesses w.Cache.bytes_accessed;
  check_int "bytes hit = hits" s.Cache.hits w.Cache.bytes_hit;
  check_int "cost = misses" s.Cache.misses w.Cache.cost_fetched

(* --- qcheck properties -------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  let trace_gen = list_of_size (Gen.int_range 50 300) (int_range 0 30) in
  [
    pointer_agreement "lru" `Lru (module Lru);
    pointer_agreement "fifo" `Fifo (module Fifo);
    pointer_agreement "mru" `Mru (module Mru);
    Test.make ~name:"every policy respects capacity" ~count:100
      (pair trace_gen (int_range 1 10))
      (fun (trace, capacity) ->
        List.for_all
          (fun kind ->
            let cache = Cache.create kind ~capacity in
            List.iter (fun k -> ignore (Cache.access cache k)) trace;
            Cache.size cache <= capacity)
          policy_kinds);
    Test.make ~name:"hits + misses = accesses for every policy" ~count:100
      (pair trace_gen (int_range 1 10))
      (fun (trace, capacity) ->
        List.for_all
          (fun kind ->
            let cache = Cache.create kind ~capacity in
            List.iter (fun k -> ignore (Cache.access cache k)) trace;
            let s = Cache.stats cache in
            s.Cache.hits + s.Cache.misses = s.Cache.accesses
            && s.Cache.accesses = List.length trace)
          policy_kinds);
    Test.make ~name:"belady dominates every online policy" ~count:60
      (pair trace_gen (int_range 1 10))
      (fun (trace, capacity) ->
        let arr = Array.of_list trace in
        let optimal = (Belady.simulate ~capacity arr).Belady.hits in
        List.for_all
          (fun kind ->
            let cache = Cache.create kind ~capacity in
            let h =
              Array.fold_left (fun acc k -> if Cache.access cache k then acc + 1 else acc) 0 arr
            in
            h <= optimal)
          policy_kinds);
    Test.make ~name:"insert_cold_group members are resident afterwards" ~count:100
      (pair (list_of_size (Gen.int_range 0 20) (int_range 0 50)) (int_range 2 12))
      (fun (members, capacity) ->
        let cache = Cache.create Cache.Lru ~capacity in
        let admitted = Cache.insert_cold_group cache members in
        List.length admitted <= capacity - 1 && List.for_all (fun m -> Cache.mem cache m) admitted);
    Test.make ~name:"group block insertion safe under every policy" ~count:80
      (pair (list_of_size (Gen.int_range 50 200) (int_range 0 30)) (int_range 2 10))
      (fun (trace, capacity) ->
        List.for_all
          (fun kind ->
            let cache = Cache.create kind ~capacity in
            List.iteri
              (fun i key ->
                if not (Cache.access cache key) then
                  ignore (Cache.insert_cold_group cache [ key + 1; key + 2; i mod 7 ]))
              trace;
            Cache.size cache <= capacity)
          policy_kinds);
    Test.make ~name:"removing then reinserting keeps policies consistent" ~count:60
      (list_of_size (Gen.int_range 20 100) (int_range 0 15))
      (fun trace ->
        List.for_all
          (fun kind ->
            let cache = Cache.create kind ~capacity:5 in
            List.iteri
              (fun i key ->
                ignore (Cache.access cache key);
                if i mod 3 = 0 then Cache.remove cache key)
              trace;
            (* size stays within bounds and removed keys are gone *)
            Cache.size cache <= 5)
          policy_kinds);
    Test.make ~name:"every policy conserves capacity under weights" ~count:60
      (pair trace_gen (int_range 4 12))
      (fun (trace, capacity) ->
        let weight_of k = { Policy.size = 1 + (k mod 3); cost = 1 + (k mod 5) } in
        List.for_all
          (fun kind ->
            let cache = Cache.create ~weight_of kind ~capacity in
            List.iter (fun k -> ignore (Cache.access cache k)) trace;
            Cache.used cache <= capacity
            && Cache.used cache
               = List.fold_left
                   (fun acc k -> acc + (weight_of k).Policy.size)
                   0 (Cache.contents cache))
          policy_kinds);
    Test.make ~name:"contents agrees with mem for ordered policies" ~count:60
      (list_of_size (Gen.int_range 20 150) (int_range 0 25))
      (fun trace ->
        List.for_all
          (fun kind ->
            let cache = Cache.create kind ~capacity:8 in
            List.iter (fun key -> ignore (Cache.access cache key)) trace;
            let contents = Cache.contents cache in
            List.length contents = Cache.size cache
            && List.for_all (fun k -> Cache.mem cache k) contents)
          policy_kinds);
  ]

let () =
  Alcotest.run "agg_cache"
    [
      ( "policy laws",
        [
          Alcotest.test_case "capacity bound" `Quick test_capacity_never_exceeded;
          Alcotest.test_case "hit iff resident" `Quick test_hit_iff_resident;
          Alcotest.test_case "stats identities" `Quick test_stats_identities;
          Alcotest.test_case "remove and clear" `Quick test_remove_and_clear;
          Alcotest.test_case "mem does not mutate" `Quick test_mem_does_not_mutate;
          Alcotest.test_case "invalid capacity" `Quick test_invalid_capacity;
          Alcotest.test_case "kind names roundtrip" `Quick test_kind_names_roundtrip;
          Alcotest.test_case "cold reposition never evicts" `Quick
            test_cold_reposition_never_evicts;
          Alcotest.test_case "cold reposition demotes" `Quick test_cold_reposition_demotes;
        ] );
      ( "lru",
        [
          Alcotest.test_case "evicts least recent" `Quick test_lru_evicts_least_recent;
          Alcotest.test_case "contents order" `Quick test_lru_contents_order;
          Alcotest.test_case "inclusion property" `Quick test_lru_inclusion_property;
        ] );
      ( "lfu",
        [
          Alcotest.test_case "evicts least frequent" `Quick test_lfu_evicts_least_frequent;
          Alcotest.test_case "frequency counter" `Quick test_lfu_frequency_counter;
          Alcotest.test_case "cold insert is first victim" `Quick
            test_lfu_cold_insert_is_first_victim;
          Alcotest.test_case "min bucket crosses a gap" `Quick test_lfu_min_bucket_crosses_gap;
          Alcotest.test_case "cold reposition resets to bucket 0" `Quick
            test_lfu_cold_reposition_resets;
          Alcotest.test_case "contents in descending (count, tick)" `Quick
            test_lfu_contents_order;
        ] );
      ( "other policies",
        [
          Alcotest.test_case "fifo ignores accesses" `Quick test_fifo_ignores_accesses;
          Alcotest.test_case "mru evicts most recent" `Quick test_mru_evicts_most_recent;
          Alcotest.test_case "clock second chance" `Quick test_clock_second_chance;
          Alcotest.test_case "clock slot reuse under mixed sizes" `Quick
            test_clock_slot_reuse_mixed_sizes;
          Alcotest.test_case "clock free-slot search wraps words" `Quick
            test_clock_free_slot_wraps_words;
          Alcotest.test_case "random deterministic" `Quick test_random_deterministic_with_seed;
        ] );
      ( "second-level policies",
        [
          Alcotest.test_case "mq frequency tiers" `Quick test_mq_frequency_tiers;
          Alcotest.test_case "mq protects frequent" `Quick test_mq_protects_frequent_blocks;
          Alcotest.test_case "mq ghost restores standing" `Quick test_mq_ghost_restores_standing;
          Alcotest.test_case "mq lifetime demotes" `Quick test_mq_lifetime_demotes;
          Alcotest.test_case "slru promotion" `Quick test_slru_promotion;
          Alcotest.test_case "slru scan resistance" `Quick test_slru_scan_resistance;
          Alcotest.test_case "slru protected overflow" `Quick test_slru_protected_overflow_demotes;
          Alcotest.test_case "2q admission" `Quick test_twoq_admission;
          Alcotest.test_case "2q ghost promotes on return" `Quick test_twoq_ghost_promotes_on_return;
          Alcotest.test_case "2q scan resistance" `Quick test_twoq_scan_resistance;
          Alcotest.test_case "arc two touches reach t2" `Quick test_arc_two_touches_reach_t2;
          Alcotest.test_case "arc ghost adapts" `Quick test_arc_ghost_hit_adapts_target;
          Alcotest.test_case "arc discards full-T1 LRU" `Quick test_arc_discards_t1_lru_when_t1_full;
          Alcotest.test_case "arc scan resistance" `Quick test_arc_scan_resistance;
        ] );
      ( "group insertion",
        [
          Alcotest.test_case "members do not evict each other" `Quick
            test_group_members_do_not_evict_each_other;
          Alcotest.test_case "eviction order" `Quick test_group_eviction_order;
          Alcotest.test_case "capped at capacity-1" `Quick test_group_capped_at_capacity_minus_one;
          Alcotest.test_case "skips residents and duplicates" `Quick
            test_group_skips_residents_and_duplicates;
          Alcotest.test_case "insert_hot accounting" `Quick test_insert_hot_no_access_count;
        ] );
      ( "belady",
        [
          Alcotest.test_case "crafted trace" `Quick test_belady_crafted;
          Alcotest.test_case "capacity one" `Quick test_belady_capacity_one;
          Alcotest.test_case "beats lru" `Quick test_belady_beats_lru;
          Alcotest.test_case "invalid" `Quick test_belady_invalid;
        ] );
      ( "multilevel",
        [
          Alcotest.test_case "outcomes" `Quick test_multilevel_outcomes;
          Alcotest.test_case "hit rate" `Quick test_multilevel_hit_rate;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "multi-victim eviction" `Quick test_weighted_multi_victim_contents;
          Alcotest.test_case "hit accounting" `Quick test_weighted_hit_accounting;
          Alcotest.test_case "oversize bypass" `Quick test_weighted_oversize_bypass;
          Alcotest.test_case "unit mirrors unweighted" `Quick test_weighted_unit_stats_mirror;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
