(* Unit and property tests for Agg_util: PRNG, distributions, statistics,
   and the core data structures every other library builds on. *)

open Agg_util

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose tolerance = Alcotest.(check (float tolerance))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Prng ----------------------------------------------------------- *)

let test_prng_determinism () =
  let a = Prng.create ~seed:123 () in
  let b = Prng.create ~seed:123 () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 () in
  let b = Prng.create ~seed:2 () in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.bits64 a) (Prng.bits64 b)) then differs := true
  done;
  check_bool "different seeds diverge" true !differs

let test_prng_copy () =
  let a = Prng.create ~seed:99 () in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_split () =
  let a = Prng.create ~seed:5 () in
  let b = Prng.split a in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.bits64 a) (Prng.bits64 b)) then differs := true
  done;
  check_bool "split stream differs from parent" true !differs

let test_prng_derive () =
  let a = Prng.create ~seed:5 () in
  let b = Prng.copy a in
  Alcotest.(check int64) "derive is reproducible"
    (Prng.bits64 (Prng.derive a 3))
    (Prng.bits64 (Prng.derive a 3));
  Alcotest.(check int64) "derive leaves the parent untouched" (Prng.bits64 b) (Prng.bits64 a)

let test_prng_int_bounds () =
  let t = Prng.create ~seed:7 () in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    check_bool "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_prng_int_invalid () =
  let t = Prng.create () in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int t 0))

let test_prng_int_in_range () =
  let t = Prng.create ~seed:11 () in
  for _ = 1 to 500 do
    let v = Prng.int_in_range t ~lo:(-3) ~hi:4 in
    check_bool "-3 <= v <= 4" true (v >= -3 && v <= 4)
  done;
  check_int "degenerate range" 9 (Prng.int_in_range t ~lo:9 ~hi:9)

let test_prng_float_bounds () =
  let t = Prng.create ~seed:13 () in
  for _ = 1 to 1000 do
    let v = Prng.float t 2.5 in
    check_bool "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let test_prng_bernoulli_degenerate () =
  let t = Prng.create () in
  check_bool "p=0 never" false (Prng.bernoulli t ~p:0.0);
  check_bool "p=1 always" true (Prng.bernoulli t ~p:1.0)

let test_prng_bernoulli_rate () =
  let t = Prng.create ~seed:3 () in
  let hits = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    if Prng.bernoulli t ~p:0.3 then incr hits
  done;
  check_float_loose 0.02 "empirical rate near 0.3" 0.3 (float_of_int !hits /. float_of_int n)

let test_prng_shuffle_permutes () =
  let t = Prng.create ~seed:21 () in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "multiset preserved" (Array.init 50 (fun i -> i)) sorted

let test_prng_choose () =
  let t = Prng.create ~seed:2 () in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    check_bool "chosen element is a member" true (Array.mem (Prng.choose t a) a)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose: empty array") (fun () ->
      ignore (Prng.choose t [||]))

(* --- Dist ----------------------------------------------------------- *)

let test_zipf_pmf_sums_to_one () =
  let z = Dist.Zipf.create ~n:100 ~s:1.0 in
  let total = ref 0.0 in
  for k = 0 to 99 do
    total := !total +. Dist.Zipf.prob z k
  done;
  check_float_loose 1e-9 "pmf sums to 1" 1.0 !total

let test_zipf_skew () =
  let z = Dist.Zipf.create ~n:10 ~s:1.0 in
  check_bool "rank 0 most likely" true (Dist.Zipf.prob z 0 > Dist.Zipf.prob z 9);
  check_float_loose 1e-9 "1/k law" (Dist.Zipf.prob z 0 /. 2.0) (Dist.Zipf.prob z 1)

let test_zipf_uniform_when_s0 () =
  let z = Dist.Zipf.create ~n:4 ~s:0.0 in
  for k = 0 to 3 do
    check_float_loose 1e-9 "uniform" 0.25 (Dist.Zipf.prob z k)
  done

let test_zipf_sample_range () =
  let z = Dist.Zipf.create ~n:7 ~s:0.8 in
  let t = Prng.create ~seed:5 () in
  for _ = 1 to 1000 do
    let v = Dist.Zipf.sample z t in
    check_bool "in range" true (v >= 0 && v < 7)
  done

let test_zipf_single_rank () =
  let z = Dist.Zipf.create ~n:1 ~s:2.0 in
  let t = Prng.create () in
  for _ = 1 to 20 do
    check_int "always 0" 0 (Dist.Zipf.sample z t)
  done

let test_zipf_empirical_matches_pmf () =
  let z = Dist.Zipf.create ~n:5 ~s:1.2 in
  let t = Prng.create ~seed:9 () in
  let counts = Array.make 5 0 in
  let n = 50000 in
  for _ = 1 to n do
    let k = Dist.Zipf.sample z t in
    counts.(k) <- counts.(k) + 1
  done;
  for k = 0 to 4 do
    check_float_loose 0.01 "empirical vs pmf"
      (Dist.Zipf.prob z k)
      (float_of_int counts.(k) /. float_of_int n)
  done

let test_zipf_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Dist.Zipf.create: n must be positive") (fun () ->
      ignore (Dist.Zipf.create ~n:0 ~s:1.0));
  Alcotest.check_raises "s<0" (Invalid_argument "Dist.Zipf.create: s must be non-negative")
    (fun () -> ignore (Dist.Zipf.create ~n:3 ~s:(-1.0)))

let test_alias_empirical () =
  let a = Dist.Alias.create [| 1.0; 3.0; 6.0 |] in
  check_int "size" 3 (Dist.Alias.size a);
  let t = Prng.create ~seed:31 () in
  let counts = Array.make 3 0 in
  let n = 60000 in
  for _ = 1 to n do
    let k = Dist.Alias.sample a t in
    counts.(k) <- counts.(k) + 1
  done;
  check_float_loose 0.01 "w=1/10" 0.1 (float_of_int counts.(0) /. float_of_int n);
  check_float_loose 0.01 "w=3/10" 0.3 (float_of_int counts.(1) /. float_of_int n);
  check_float_loose 0.01 "w=6/10" 0.6 (float_of_int counts.(2) /. float_of_int n)

let test_alias_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Dist.Alias.create: empty weights") (fun () ->
      ignore (Dist.Alias.create [||]));
  Alcotest.check_raises "zero sum" (Invalid_argument "Dist.Alias.create: weights sum to zero")
    (fun () -> ignore (Dist.Alias.create [| 0.0; 0.0 |]));
  Alcotest.check_raises "negative" (Invalid_argument "Dist.Alias.create: negative weight")
    (fun () -> ignore (Dist.Alias.create [| 2.0; -1.0 |]))

let test_geometric () =
  let t = Prng.create ~seed:17 () in
  check_int "p=1 is 0" 0 (Dist.geometric t ~p:1.0);
  let sum = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    sum := !sum + Dist.geometric t ~p:0.25
  done;
  (* mean of failures-before-success = (1-p)/p = 3 *)
  check_float_loose 0.15 "mean near 3" 3.0 (float_of_int !sum /. float_of_int n)

let test_exponential () =
  let t = Prng.create ~seed:19 () in
  let sum = ref 0.0 in
  let n = 20000 in
  for _ = 1 to n do
    let v = Dist.exponential t ~mean:2.0 in
    check_bool "positive" true (v >= 0.0);
    sum := !sum +. v
  done;
  check_float_loose 0.1 "mean near 2" 2.0 (!sum /. float_of_int n)

let test_categorical () =
  let t = Prng.create ~seed:23 () in
  for _ = 1 to 200 do
    let k = Dist.categorical t [| 0.0; 5.0; 0.0 |] in
    check_int "only positive-weight index" 1 k
  done

(* --- Stats ---------------------------------------------------------- *)

let test_running_stats () =
  let r = Stats.Running.create () in
  List.iter (Stats.Running.add r) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_int "count" 8 (Stats.Running.count r);
  check_float "mean" 5.0 (Stats.Running.mean r);
  check_float_loose 1e-9 "sample variance" (32.0 /. 7.0) (Stats.Running.variance r);
  check_float "min" 2.0 (Stats.Running.min r);
  check_float "max" 9.0 (Stats.Running.max r)

let test_running_empty () =
  let r = Stats.Running.create () in
  check_int "count 0" 0 (Stats.Running.count r);
  check_float "mean 0" 0.0 (Stats.Running.mean r);
  check_float "variance 0" 0.0 (Stats.Running.variance r)

let test_histogram_percentile () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~buckets:100 in
  for i = 0 to 999 do
    Stats.Histogram.add h (float_of_int (i mod 100))
  done;
  check_int "count" 1000 (Stats.Histogram.count h);
  check_float_loose 2.0 "median near 50" 50.0 (Stats.Histogram.percentile h 50.0);
  check_float_loose 2.0 "p90 near 90" 90.0 (Stats.Histogram.percentile h 90.0)

let test_histogram_clamps () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:10 in
  Stats.Histogram.add h (-5.0);
  Stats.Histogram.add h 50.0;
  let counts = Stats.Histogram.bucket_counts h in
  check_int "first bucket" 1 counts.(0);
  check_int "last bucket" 1 counts.(9)

let test_histogram_invalid () =
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.Histogram.percentile: empty histogram") (fun () ->
      ignore (Stats.Histogram.percentile (Stats.Histogram.create ~lo:0. ~hi:1. ~buckets:2) 50.0))

let test_stats_helpers () =
  check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check_float "mean empty" 0.0 (Stats.mean [||]);
  check_float "ratio" 0.5 (Stats.ratio 1 2);
  check_float "ratio div0" 0.0 (Stats.ratio 1 0);
  check_float "percent change" 50.0 (Stats.percent_change ~baseline:2.0 ~value:3.0);
  check_float "log2" 3.0 (Stats.log2 8.0)

(* --- Dlist: one arena list, positional operations ---------------------- *)

let test_dlist_order () =
  let t = Dlist_arena.create () in
  let l = Dlist_arena.new_list t in
  let two = Dlist_arena.push_front t l 2 in
  ignore (Dlist_arena.push_front t l 1);
  ignore (Dlist_arena.push_back t l 4);
  ignore (Dlist_arena.push_after t two 3);
  Alcotest.(check (list int)) "front-to-back" [ 1; 2; 3; 4 ] (Dlist_arena.to_list t l);
  check_int "length" 4 (Dlist_arena.length t l)

let test_dlist_moves () =
  let t = Dlist_arena.create () in
  let l = Dlist_arena.new_list t in
  let a = Dlist_arena.push_back t l (Char.code 'a') in
  let b = Dlist_arena.push_back t l (Char.code 'b') in
  let c = Dlist_arena.push_back t l (Char.code 'c') in
  let keys () = List.map Char.chr (Dlist_arena.to_list t l) in
  Dlist_arena.move_to_front t l c;
  Dlist_arena.move_to_back t l a;
  Alcotest.(check (list char)) "after end moves" [ 'c'; 'b'; 'a' ] (keys ());
  Dlist_arena.move_after t c ~anchor:a;
  Alcotest.(check (list char)) "after move_after" [ 'b'; 'a'; 'c' ] (keys ());
  Dlist_arena.move_after t a ~anchor:b;
  Alcotest.(check (list char)) "move_after its own predecessor" [ 'b'; 'a'; 'c' ] (keys ())

let test_dlist_remove () =
  let t = Dlist_arena.create () in
  let l = Dlist_arena.new_list t in
  let a = Dlist_arena.push_back t l 1 in
  let b = Dlist_arena.push_back t l 2 in
  let c = Dlist_arena.push_back t l 3 in
  Dlist_arena.remove t b;
  Alcotest.(check (list int)) "middle unlinked" [ 1; 3 ] (Dlist_arena.to_list t l);
  check_int "neighbours rejoined" c (Dlist_arena.next t l a);
  Dlist_arena.remove t a;
  Dlist_arena.remove t c;
  check_bool "empty" true (Dlist_arena.is_empty t l);
  check_int "slots returned" (Dlist_arena.slots t) (Dlist_arena.live t + Dlist_arena.free t)

let test_dlist_pops () =
  let t = Dlist_arena.create () in
  let l = Dlist_arena.new_list t in
  check_int "first of empty" Dlist_arena.nil (Dlist_arena.first t l);
  check_int "last of empty" Dlist_arena.nil (Dlist_arena.last t l);
  let n1 = Dlist_arena.push_back t l 1 in
  let n2 = Dlist_arena.push_back t l 2 in
  check_int "first" n1 (Dlist_arena.first t l);
  check_int "last" n2 (Dlist_arena.last t l);
  check_int "next" n2 (Dlist_arena.next t l n1);
  check_int "next of last" Dlist_arena.nil (Dlist_arena.next t l n2);
  check_int "prev" n1 (Dlist_arena.prev t l n2);
  check_int "prev of first" Dlist_arena.nil (Dlist_arena.prev t l n1);
  check_int "pop front" 1 (Dlist_arena.pop_front t l);
  check_int "pop back" 2 (Dlist_arena.pop_back t l);
  check_int "pop back of empty" (-1) (Dlist_arena.pop_back t l)

let test_dlist_clear () =
  let t = Dlist_arena.create () in
  let l = Dlist_arena.new_list t in
  List.iter (fun k -> ignore (Dlist_arena.push_back t l k)) [ 1; 2; 3; 4 ];
  Dlist_arena.clear_list t l;
  check_bool "empty" true (Dlist_arena.is_empty t l);
  check_int "length" 0 (Dlist_arena.length t l);
  ignore (Dlist_arena.push_back t l 9);
  Alcotest.(check (list int)) "reusable after clear" [ 9 ] (Dlist_arena.to_list t l)

let test_dlist_fold_iter () =
  let t = Dlist_arena.create () in
  let l = Dlist_arena.new_list t in
  List.iter (fun k -> ignore (Dlist_arena.push_back t l k)) [ 1; 2; 3; 4 ];
  check_int "fold sum" 10 (Dlist_arena.fold t l ~init:0 ~f:( + ));
  let seen = ref [] in
  Dlist_arena.iter t l (fun k -> seen := k :: !seen);
  Alcotest.(check (list int)) "iter order" [ 4; 3; 2; 1 ] !seen

(* --- Dlist_arena ----------------------------------------------------- *)

let check_arena_invariant t =
  check_int "live + free = slots" (Dlist_arena.slots t)
    (Dlist_arena.live t + Dlist_arena.free t)

let test_arena_order () =
  let t = Dlist_arena.create ~capacity:2 () in
  let l = Dlist_arena.new_list t in
  ignore (Dlist_arena.push_front t l 2);
  ignore (Dlist_arena.push_front t l 1);
  ignore (Dlist_arena.push_back t l 3);
  Alcotest.(check (list int)) "front-to-back" [ 1; 2; 3 ] (Dlist_arena.to_list t l);
  check_int "length" 3 (Dlist_arena.length t l);
  check_arena_invariant t

let test_arena_moves_cross_list () =
  let t = Dlist_arena.create () in
  let a = Dlist_arena.new_list t in
  let b = Dlist_arena.new_list t in
  let n1 = Dlist_arena.push_back t a 1 in
  let n2 = Dlist_arena.push_back t a 2 in
  ignore (Dlist_arena.push_back t b 9);
  (* node indices are stable across cross-list moves *)
  Dlist_arena.move_to_front t b n1;
  Dlist_arena.move_to_back t b n2;
  Alcotest.(check (list int)) "a emptied" [] (Dlist_arena.to_list t a);
  Alcotest.(check (list int)) "b order" [ 1; 9; 2 ] (Dlist_arena.to_list t b);
  check_int "moved key" 1 (Dlist_arena.key t n1);
  check_arena_invariant t

let test_arena_free_list_reuse () =
  let t = Dlist_arena.create ~capacity:4 () in
  let l = Dlist_arena.new_list t in
  let n1 = Dlist_arena.push_back t l 1 in
  let _n2 = Dlist_arena.push_back t l 2 in
  let slots_before = Dlist_arena.slots t in
  Dlist_arena.remove t n1;
  check_arena_invariant t;
  let n3 = Dlist_arena.push_back t l 3 in
  check_int "freed slot is reused" n1 n3;
  check_int "no growth on reuse" slots_before (Dlist_arena.slots t);
  Alcotest.(check (list int)) "order after reuse" [ 2; 3 ] (Dlist_arena.to_list t l)

let test_arena_pops () =
  let t = Dlist_arena.create () in
  let l = Dlist_arena.new_list t in
  check_int "pop empty" (-1) (Dlist_arena.pop_front t l);
  ignore (Dlist_arena.push_back t l 1);
  ignore (Dlist_arena.push_back t l 2);
  check_int "pop front" 1 (Dlist_arena.pop_front t l);
  check_int "pop back" 2 (Dlist_arena.pop_back t l);
  check_bool "now empty" true (Dlist_arena.is_empty t l);
  check_arena_invariant t

let test_arena_clear_list () =
  let t = Dlist_arena.create ~capacity:2 () in
  let l = Dlist_arena.new_list t in
  let other = Dlist_arena.new_list t in
  ignore (Dlist_arena.push_back t other 42);
  for k = 1 to 5 do
    ignore (Dlist_arena.push_back t l k)
  done;
  let slots_full = Dlist_arena.slots t in
  Dlist_arena.clear_list t l;
  check_bool "cleared" true (Dlist_arena.is_empty t l);
  check_arena_invariant t;
  Alcotest.(check (list int)) "other list untouched" [ 42 ] (Dlist_arena.to_list t other);
  (* all five slots are back on the free list: refilling must not grow *)
  for k = 6 to 10 do
    ignore (Dlist_arena.push_back t l k)
  done;
  check_int "no growth after clear" slots_full (Dlist_arena.slots t);
  Alcotest.(check (list int)) "refilled" [ 6; 7; 8; 9; 10 ] (Dlist_arena.to_list t l)

(* --- Int_table -------------------------------------------------------- *)

let test_int_table_basics () =
  let t = Int_table.create ~capacity:2 () in
  check_int "absent" (-1) (Int_table.get t 5);
  check_bool "absent mem" false (Int_table.mem t 5);
  Int_table.set t 5 7;
  Int_table.set t 0 0;
  check_int "bound" 7 (Int_table.get t 5);
  check_int "zero value" 0 (Int_table.get t 0);
  check_int "length" 2 (Int_table.length t);
  Int_table.set t 5 9;
  check_int "overwrite" 9 (Int_table.get t 5);
  check_int "length after overwrite" 2 (Int_table.length t);
  Int_table.remove t 5;
  check_int "removed" (-1) (Int_table.get t 5);
  check_int "length after remove" 1 (Int_table.length t);
  Int_table.remove t 99;
  (* out-of-range removal is a no-op *)
  check_int "negative get" (-1) (Int_table.get t (-3));
  Alcotest.check_raises "negative key" (Invalid_argument "Int_table.set: negative key")
    (fun () -> Int_table.set t (-1) 0);
  Int_table.clear t;
  check_int "cleared" 0 (Int_table.length t);
  check_int "cleared get" (-1) (Int_table.get t 0)

(* --- Pool ------------------------------------------------------------ *)

let test_pool_map_order () =
  let xs = List.init 100 (fun i -> i) in
  Alcotest.(check (list int))
    "squares in order" (List.map (fun x -> x * x) xs)
    (Pool.map ~jobs:4 (fun x -> x * x) xs);
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map ~jobs:4 (fun x -> x) [ 7 ])

let test_pool_map_array () =
  let input = Array.init 37 (fun i -> i) in
  Alcotest.(check (array int))
    "array map matches" (Array.map succ input)
    (Pool.map_array ~jobs:3 succ input)

let test_pool_map_reduce () =
  (* string concatenation is not commutative, so this pins reduction
     order, not just the multiset of results *)
  let xs = List.init 50 string_of_int in
  Alcotest.(check string)
    "reduces in input order" (String.concat "" xs)
    (Pool.map_reduce ~jobs:4 ~map:(fun s -> s) ~reduce:( ^ ) ~init:"" xs)

let test_pool_invalid_jobs () =
  Alcotest.check_raises "jobs 0" (Invalid_argument "Pool.map: jobs must be positive") (fun () ->
      ignore (Pool.map ~jobs:0 (fun x -> x) [ 1; 2 ]))

let test_pool_exception () =
  let boom i = if i >= 3 then failwith (Printf.sprintf "boom %d" i) else i in
  Alcotest.check_raises "lowest failing index wins" (Failure "boom 3") (fun () ->
      ignore (Pool.map ~jobs:4 boom (List.init 20 (fun i -> i))));
  Alcotest.check_raises "sequential path too" (Failure "boom 3") (fun () ->
      ignore (Pool.map ~jobs:1 boom (List.init 20 (fun i -> i))))

let test_pool_default_jobs () =
  check_bool "at least one domain" true (Pool.default_jobs () >= 1)

(* --- Heap ------------------------------------------------------------ *)

(* Removes every element, returning (priority, stamp, payload) in pop
   order. *)
let drain_heap h =
  let rec go acc =
    let top = Heap.top h in
    if top = Heap.nil then List.rev acc
    else begin
      let e = (Heap.priority h top, Heap.stamp h top, Heap.value h top) in
      Heap.remove h top;
      go (e :: acc)
    end
  in
  go []

let test_heap_sorts () =
  let h = Heap.create ~capacity:2 () in
  List.iteri
    (fun i p -> ignore (Heap.push h ~priority:(float_of_int p) ~stamp:i p))
    [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ]
    (List.map (fun (_, _, v) -> v) (drain_heap h));
  check_bool "grew past its initial slots" true (Heap.slots h >= 7)

let test_heap_peek_clear () =
  let h = Heap.create () in
  check_bool "empty" true (Heap.is_empty h);
  check_int "top of empty" Heap.nil (Heap.top h);
  ignore (Heap.push h ~priority:3.0 ~stamp:0 30);
  let a = Heap.push h ~priority:1.0 ~stamp:1 10 in
  check_int "top is smallest" a (Heap.top h);
  check_int "payload" 10 (Heap.value h (Heap.top h));
  check_int "length" 2 (Heap.length h);
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h);
  check_int "top after clear" Heap.nil (Heap.top h)

let test_heap_ties_and_updates () =
  let h = Heap.create () in
  let a = Heap.push h ~priority:1.0 ~stamp:5 1 in
  let b = Heap.push h ~priority:1.0 ~stamp:2 2 in
  let c = Heap.push h ~priority:0.5 ~stamp:9 3 in
  check_int "lowest priority first" c (Heap.top h);
  Heap.update h c ~priority:2.0 ~stamp:9;
  check_int "equal priorities: smaller stamp wins" b (Heap.top h);
  Heap.update h b ~priority:1.0 ~stamp:7;
  check_int "re-stamped past a" a (Heap.top h);
  Heap.remove h a;
  check_int "after remove" b (Heap.top h);
  let d = Heap.push h ~priority:0.0 ~stamp:0 4 in
  check_int "freed handle reused" a d;
  Alcotest.(check (list int)) "drain order" [ 4; 2; 3 ]
    (List.map (fun (_, _, v) -> v) (drain_heap h))

(* --- Vec -------------------------------------------------------------- *)

let test_vec_basics () =
  let v = Vec.create () in
  check_bool "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get" 42 (Vec.get v 42);
  Vec.set v 42 1000;
  check_int "set" 1000 (Vec.get v 42);
  Alcotest.(check (option int)) "pop" (Some 99) (Vec.pop v);
  check_int "length after pop" 99 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 3));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set: index out of bounds") (fun () ->
      Vec.set v (-1) 0);
  Alcotest.check_raises "sub oob" (Invalid_argument "Vec.sub: slice out of bounds") (fun () ->
      ignore (Vec.sub v ~pos:2 ~len:2))

let test_vec_conversions () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (Vec.to_list v);
  let doubled = Vec.map (fun x -> 2 * x) v in
  Alcotest.(check (list int)) "map" [ 2; 4; 6 ] (Vec.to_list doubled);
  let s = Vec.sub v ~pos:1 ~len:2 in
  Alcotest.(check (list int)) "sub" [ 2; 3 ] (Vec.to_list s);
  check_int "fold" 6 (Vec.fold ( + ) 0 v)

(* --- Table ------------------------------------------------------------ *)

(* A minimal substring check, to avoid pulling in a string library. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = if i + n > h then false else String.sub haystack i n = needle || loop (i + 1) in
  loop 0

let test_table_render () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333" ];
  (* short row padded *)
  let rendered = Table.render t in
  check_bool "has title" true (String.length rendered > 0);
  check_bool "contains header" true (contains rendered "333" && contains rendered "bb")

let test_table_too_many_cells () =
  let t = Table.create ~title:"t" ~columns:[ "a" ] in
  Alcotest.check_raises "too many" (Invalid_argument "Table.add_row: more cells than columns")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_float_row () =
  let t = Table.create ~title:"t" ~columns:[ "label"; "x"; "y" ] in
  Table.add_float_row t ~decimals:1 "row" [ 1.25; 2.0 ];
  let rendered = Table.render t in
  check_bool "formats decimals" true (contains rendered "1.2")

(* --- qcheck properties ------------------------------------------------ *)

exception Boom of int

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"Pool.map_array agrees with Array.map for any jobs" ~count:100
      (pair (int_range 1 8) (list small_int))
      (fun (jobs, xs) ->
        let input = Array.of_list xs in
        let f x = (x * 3) - 1 in
        Pool.map_array ~jobs f input = Array.map f input);
    Test.make ~name:"Pool.map rethrows the lowest failing index" ~count:100
      (pair (int_range 1 8) (list bool))
      (fun (jobs, flags) ->
        (* any subset of elements may raise; the contract is that the
           exception of the lowest-index failure is the one rethrown *)
        let xs = List.mapi (fun i fail -> (i, fail)) flags in
        let f (i, fail) = if fail then raise (Boom i) else i in
        match List.find_opt snd xs with
        | None -> Pool.map ~jobs f xs = List.map fst xs
        | Some (first, _) -> (
            match Pool.map ~jobs f xs with
            | _ -> false
            | exception Boom i -> i = first));
    Test.make ~name:"Prng.derive streams are reproducible and index-distinct" ~count:200
      (triple (int_range 0 1_000_000) (int_range 0 1000) (int_range 0 1000))
      (fun (seed, i, j) ->
        let stream k =
          let g = Prng.derive (Prng.create ~seed ()) k in
          List.init 4 (fun _ -> Prng.bits64 g)
        in
        stream i = stream i && (i = j || stream i <> stream j));
    Test.make ~name:"Prng.derive never advances the parent" ~count:200
      (triple (int_range 0 1_000_000) (int_range 0 20) (int_range 0 1000))
      (fun (seed, draws, index) ->
        let a = Prng.create ~seed () in
        for _ = 1 to draws do
          ignore (Prng.bits64 a)
        done;
        let b = Prng.copy a in
        ignore (Prng.derive a index);
        Prng.bits64 a = Prng.bits64 b);
    Test.make ~name:"Heap drain equals the sorted priority list" ~count:200
      (list (pair small_int small_int))
      (fun l ->
        (* stamps are the push order, so the drain is a stable sort *)
        let h = Heap.create ~capacity:1 () in
        List.iteri (fun i (p, v) -> ignore (Heap.push h ~priority:(float_of_int p) ~stamp:i v)) l;
        List.map (fun (_, _, v) -> v) (drain_heap h)
        = List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) l));
    Test.make ~name:"Vec push/pop round-trips against a list model" ~count:200
      (* [Some v] = push v, [None] = pop; the reference is a plain list
         used as a stack, compared op-for-op and on the final contents *)
      (list (option small_int))
      (fun ops ->
        let v = Vec.create () in
        let model = ref [] in
        List.for_all
          (fun op ->
            match op with
            | Some x ->
                Vec.push v x;
                model := x :: !model;
                true
            | None -> (
                match !model with
                | [] -> Vec.pop v = None
                | x :: rest ->
                    model := rest;
                    Vec.pop v = Some x))
          ops
        && Vec.to_list v = List.rev !model);
    Test.make ~name:"Table.render is deterministic and contains every cell" ~count:100
      (list (pair small_int small_int))
      (fun rows ->
        let build () =
          let t = Table.create ~title:"t" ~columns:[ "x"; "y" ] in
          List.iter (fun (a, b) -> Table.add_row t [ string_of_int a; string_of_int b ]) rows;
          Table.render t
        in
        let rendered = build () in
        rendered = build ()
        && List.for_all
             (fun (a, b) ->
               contains rendered (string_of_int a) && contains rendered (string_of_int b))
             rows);
    Test.make ~name:"Prng.int always within bound" ~count:500
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let t = Prng.create ~seed () in
        let v = Prng.int t bound in
        v >= 0 && v < bound);
    Test.make ~name:"Vec of_list/to_list roundtrip" ~count:200 (list int) (fun l ->
        Vec.to_list (Vec.of_list l) = l);
    Test.make ~name:"Heap pop yields sorted order" ~count:200
      (* each op pushes (priority, stamp), or re-keys / removes the
         element pushed [k] ops ago when still present; the drain must
         then come out sorted by (priority, stamp) *)
      (list (triple (int_range 0 2) small_int small_int))
      (fun ops ->
        let h = Heap.create ~capacity:1 () in
        let live = ref [] in
        List.iteri
          (fun i (op, p, k) ->
            match (op, List.nth_opt !live (k mod max 1 (List.length !live))) with
            | 1, Some handle -> Heap.update h handle ~priority:(float_of_int p) ~stamp:i
            | 2, Some handle ->
                Heap.remove h handle;
                live := List.filter (( <> ) handle) !live
            | _ -> live := Heap.push h ~priority:(float_of_int p) ~stamp:i i :: !live)
          ops;
        let keys = List.map (fun (p, s, _) -> (p, s)) (drain_heap h) in
        List.length keys = List.length !live && keys = List.sort compare keys);
    Test.make ~name:"Pool.map agrees with List.map for any jobs" ~count:100
      (pair (int_range 1 8) (list small_int))
      (fun (jobs, xs) ->
        Pool.map ~jobs (fun x -> (x * 2) + 1) xs = List.map (fun x -> (x * 2) + 1) xs);
    Test.make ~name:"Pool.map_reduce agrees with sequential fold" ~count:100
      (pair (int_range 1 8) (list small_int))
      (fun (jobs, xs) ->
        Pool.map_reduce ~jobs ~map:string_of_int ~reduce:( ^ ) ~init:"" xs
        = List.fold_left ( ^ ) "" (List.map string_of_int xs));
    Test.make ~name:"Dlist push_back preserves order" ~count:200 (list int) (fun l ->
        let t = Dlist_arena.create ~capacity:1 () in
        let d = Dlist_arena.new_list t in
        List.iter (fun v -> ignore (Dlist_arena.push_back t d v)) l;
        Dlist_arena.to_list t d = l);
    Test.make ~name:"Zipf sample within range" ~count:300
      (pair (int_range 1 50) (int_range 0 30))
      (fun (n, seed) ->
        let z = Dist.Zipf.create ~n ~s:1.0 in
        let t = Prng.create ~seed () in
        let v = Dist.Zipf.sample z t in
        v >= 0 && v < n);
    Test.make ~name:"Int_table agrees with a Hashtbl model" ~count:300
      (list (pair (int_range 0 40) (int_range (-1) 20)))
      (fun ops ->
        (* value -1 encodes a removal of that key *)
        let t = Int_table.create ~capacity:1 () in
        let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
        List.for_all
          (fun (k, v) ->
            if v < 0 then begin
              Int_table.remove t k;
              Hashtbl.remove model k
            end
            else begin
              Int_table.set t k v;
              Hashtbl.replace model k v
            end;
            Int_table.length t = Hashtbl.length model
            && List.for_all
                 (fun key ->
                   Int_table.get t key = Option.value ~default:(-1) (Hashtbl.find_opt model key))
                 (List.init 41 Fun.id))
          ops);
    Test.make ~name:"Dlist_arena keeps live + free = slots and mirrors a list model" ~count:200
      (list (pair (int_range 0 3) (int_range 0 30)))
      (fun ops ->
        (* op 0: push_back, 1: push_front, 2: pop_front, 3: pop_back —
           mirrored against a plain list model, with the free-list
           invariant checked after every operation *)
        let t = Dlist_arena.create ~capacity:1 () in
        let l = Dlist_arena.new_list t in
        let model = ref [] in
        List.for_all
          (fun (op, k) ->
            let step_ok =
              match op with
              | 0 ->
                  ignore (Dlist_arena.push_back t l k);
                  model := !model @ [ k ];
                  true
              | 1 ->
                  ignore (Dlist_arena.push_front t l k);
                  model := k :: !model;
                  true
              | 2 ->
                  let expected =
                    match !model with
                    | [] -> -1
                    | x :: tl ->
                        model := tl;
                        x
                  in
                  Dlist_arena.pop_front t l = expected
              | _ ->
                  let expected =
                    match List.rev !model with
                    | [] -> -1
                    | x :: tl ->
                        model := List.rev tl;
                        x
                  in
                  Dlist_arena.pop_back t l = expected
            in
            step_ok
            && Dlist_arena.live t + Dlist_arena.free t = Dlist_arena.slots t
            && Dlist_arena.to_list t l = !model)
          ops);
  ]

let () =
  Alcotest.run "agg_util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split" `Quick test_prng_split;
          Alcotest.test_case "derive" `Quick test_prng_derive;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
          Alcotest.test_case "int_in_range" `Quick test_prng_int_in_range;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "bernoulli degenerate" `Quick test_prng_bernoulli_degenerate;
          Alcotest.test_case "bernoulli rate" `Quick test_prng_bernoulli_rate;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "choose" `Quick test_prng_choose;
        ] );
      ( "dist",
        [
          Alcotest.test_case "zipf pmf sums" `Quick test_zipf_pmf_sums_to_one;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf s=0 uniform" `Quick test_zipf_uniform_when_s0;
          Alcotest.test_case "zipf sample range" `Quick test_zipf_sample_range;
          Alcotest.test_case "zipf single rank" `Quick test_zipf_single_rank;
          Alcotest.test_case "zipf empirical" `Quick test_zipf_empirical_matches_pmf;
          Alcotest.test_case "zipf invalid" `Quick test_zipf_invalid;
          Alcotest.test_case "alias empirical" `Quick test_alias_empirical;
          Alcotest.test_case "alias invalid" `Quick test_alias_invalid;
          Alcotest.test_case "geometric" `Quick test_geometric;
          Alcotest.test_case "exponential" `Quick test_exponential;
          Alcotest.test_case "categorical" `Quick test_categorical;
        ] );
      ( "stats",
        [
          Alcotest.test_case "running stats" `Quick test_running_stats;
          Alcotest.test_case "running empty" `Quick test_running_empty;
          Alcotest.test_case "histogram percentile" `Quick test_histogram_percentile;
          Alcotest.test_case "histogram clamps" `Quick test_histogram_clamps;
          Alcotest.test_case "histogram invalid" `Quick test_histogram_invalid;
          Alcotest.test_case "helpers" `Quick test_stats_helpers;
        ] );
      ( "dlist",
        [
          Alcotest.test_case "order" `Quick test_dlist_order;
          Alcotest.test_case "moves" `Quick test_dlist_moves;
          Alcotest.test_case "remove" `Quick test_dlist_remove;
          Alcotest.test_case "pops" `Quick test_dlist_pops;
          Alcotest.test_case "clear" `Quick test_dlist_clear;
          Alcotest.test_case "fold and iter" `Quick test_dlist_fold_iter;
        ] );
      ( "dlist_arena",
        [
          Alcotest.test_case "order" `Quick test_arena_order;
          Alcotest.test_case "cross-list moves" `Quick test_arena_moves_cross_list;
          Alcotest.test_case "free-list reuse" `Quick test_arena_free_list_reuse;
          Alcotest.test_case "pops" `Quick test_arena_pops;
          Alcotest.test_case "clear_list" `Quick test_arena_clear_list;
        ] );
      ( "int_table",
        [ Alcotest.test_case "basics" `Quick test_int_table_basics ] );
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "map_array" `Quick test_pool_map_array;
          Alcotest.test_case "map_reduce order" `Quick test_pool_map_reduce;
          Alcotest.test_case "invalid jobs" `Quick test_pool_invalid_jobs;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "default jobs" `Quick test_pool_default_jobs;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "peek and clear" `Quick test_heap_peek_clear;
          Alcotest.test_case "stamp ties, updates and handle reuse" `Quick
            test_heap_ties_and_updates;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "conversions" `Quick test_vec_conversions;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
          Alcotest.test_case "float row" `Quick test_table_float_row;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
