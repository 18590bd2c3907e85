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

(* The first eight outputs of fixed streams. Every generated trace
   depends on these bits, so a change to the generator state must keep
   them. *)
let test_prng_known_answers () =
  let check name expected g =
    Alcotest.(check (list int64)) name expected (List.init 8 (fun _ -> Prng.bits64 g))
  in
  check "create ~seed:0"
    [
      0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L; 0x6aa594f1262d2d2cL;
      0xbba5ad4a1f842e59L; 0xffef8375d9ebcacaL; 0x6c160deed2f54c98L; 0x8920ad648fc30a3fL;
    ]
    (Prng.create ~seed:0 ());
  check "create ~seed:42"
    [
      0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L; 0xecb8ad4703b360a1L;
      0xfde6dc7fe2ec5e64L; 0xc50da53101795238L; 0xb82154855a65ddb2L; 0xd99a2743ebe60087L;
    ]
    (Prng.create ~seed:42 ());
  check "split of create ~seed:42"
    [
      0x8ee445d14631c453L; 0x106fa1a13296fe62L; 0x729a768806244ce5L; 0x91d83a17b20e6585L;
      0x38c33df442fc70fdL; 0xe33cd1b92e2e42f1L; 0x3162280b9dcfa5efL; 0xb4f9f0541228b854L;
    ]
    (Prng.split (Prng.create ~seed:42 ()));
  check "derive (create ~seed:42) 3"
    [
      0x6d024e3593a88f6cL; 0xd094484a1cb36894L; 0x478188cd852e40b7L; 0xfa1e8e5b9a19d849L;
      0x64a646ac99f8c13fL; 0x6cfa81721c8e69a2L; 0x026314c6e2ffd2b9L; 0x8fa55d73a8c872ffL;
    ]
    (Prng.derive (Prng.create ~seed:42 ()) 3)

let test_prng_draw () =
  let a = Prng.create ~seed:11 () in
  let b = Prng.copy a in
  let c = Prng.copy a in
  for _ = 1 to 1000 do
    let d = Prng.draw a in
    Alcotest.(check int64) "top 62 bits of bits64"
      (Int64.shift_right_logical (Prng.bits64 b) 2)
      (Int64.of_int d);
    Alcotest.(check int64) "float g 1.0 = draw_float (draw g)"
      (Int64.bits_of_float (Prng.float c 1.0))
      (Int64.bits_of_float (Prng.draw_float d))
  done

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

(* The Zipf table and sampler the guide table replaced: a closure-built
   table and a binary search over the whole cdf. The guide-table sampler
   must return the same rank for the same draw, and [prob] the same bits. *)
module Reference_zipf = struct
  let create ~n ~s =
    let pmf = Array.init n (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) s) in
    let total = Array.fold_left ( +. ) 0.0 pmf in
    let acc = ref 0.0 in
    let cdf =
      Array.map
        (fun w ->
          let p = w /. total in
          acc := !acc +. p;
          !acc)
        pmf
    in
    cdf.(n - 1) <- 1.0;
    Array.iteri (fun i w -> pmf.(i) <- w /. total) pmf;
    (cdf, pmf)

  let sample cdf prng =
    let u = Prng.float prng 1.0 in
    let rec loop lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) >= u then loop lo mid else loop (mid + 1) hi
    in
    loop 0 (Array.length cdf - 1)
end

(* [draws] samples from two copies of one stream, then every [prob]. *)
let zipf_matches_reference ?(draws = 2_000) ~n ~s ~seed () =
  let z = Dist.Zipf.create ~n ~s in
  let cdf, pmf = Reference_zipf.create ~n ~s in
  let a = Prng.create ~seed () in
  let b = Prng.copy a in
  let same = ref (Dist.Zipf.n z = n) in
  for _ = 1 to draws do
    if Dist.Zipf.sample z a <> Reference_zipf.sample cdf b then same := false
  done;
  for k = 0 to n - 1 do
    if not (Int64.equal (Int64.bits_of_float (Dist.Zipf.prob z k)) (Int64.bits_of_float pmf.(k)))
    then same := false
  done;
  !same && Int64.equal (Prng.bits64 a) (Prng.bits64 b)

(* s = 0 with n a power of two puts every cdf entry exactly on a guide
   bucket's lower bound. *)
let test_zipf_reference_bucket_edges () =
  for bits = 0 to 15 do
    let n = 1 lsl bits in
    check_bool
      (Printf.sprintf "n = %d, s = 0" n)
      true
      (zipf_matches_reference ~draws:20_000 ~n ~s:0.0 ~seed:bits ())
  done

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

(* A multiset as its distinct values, in order of first appearance, and
   how often each occurs. *)
let tallies a =
  let values = ref [] and counts = Hashtbl.create 16 in
  Array.iter
    (fun x ->
      match Hashtbl.find_opt counts x with
      | Some c -> Hashtbl.replace counts x (c + 1)
      | None ->
          values := x :: !values;
          Hashtbl.add counts x 1)
    a;
  let values = Array.of_list (List.rev !values) in
  (values, Array.map (Hashtbl.find counts) values)

let test_stats_helpers () =
  check_float "ratio" 0.5 (Stats.ratio 1 2);
  check_float "ratio div0" 0.0 (Stats.ratio 1 0);
  check_float "percent change" 50.0 (Stats.percent_change ~baseline:2.0 ~value:3.0);
  check_float "log2" 3.0 (Stats.log2 8.0);
  (* 1 .. 20, listed descending, once each: index floor (19 * p) of the
     sorted values, 18 for p95, 9 for the median, no interpolation *)
  let values = Array.init 20 (fun i -> float_of_int (20 - i)) in
  let once = Array.make 20 1 in
  check_float "p95 by rank" 19.0 (Stats.percentile_of_counts values once 0.95);
  check_float "median by rank" 10.0 (Stats.percentile_of_counts values once 0.5);
  check_float "p0 is the minimum" 1.0 (Stats.percentile_of_counts values once 0.0);
  check_float "p100 is the maximum" 20.0 (Stats.percentile_of_counts values once 1.0);
  check_float "percentile empty" 0.0 (Stats.percentile_of_counts [||] [||] 0.99);
  check_float "zero counts are absent" 0.0
    (Stats.percentile_of_counts [| 3.0; 5.0 |] [| 0; 0 |] 0.5);
  (* 9 copies of 1.0 and one 7.0: rank floor (9 p) is 8 up to p = 1 *)
  check_float "duplicates by rank" 1.0 (Stats.percentile_of_counts [| 7.0; 1.0 |] [| 1; 9 |] 0.99);
  check_float "the last rank" 7.0 (Stats.percentile_of_counts [| 7.0; 1.0 |] [| 1; 9 |] 1.0);
  Alcotest.check_raises "p above 1"
    (Invalid_argument "Stats.percentile_of_counts: p outside [0, 1]") (fun () ->
      ignore (Stats.percentile_of_counts [| 1.0; 2.0 |] [| 1; 1 |] 1.5));
  Alcotest.check_raises "lengths differ"
    (Invalid_argument "Stats.percentile_of_counts: values and counts differ in length") (fun () ->
      ignore (Stats.percentile_of_counts [| 1.0; 2.0 |] [| 1 |] 0.5));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Stats.percentile_of_counts: negative count") (fun () ->
      ignore (Stats.percentile_of_counts [| 1.0; 2.0 |] [| 1; -1 |] 0.5))

(* Sorted, reversed, constant, organ pipe, sawtooth and two-valued
   samples, tallied per distinct value, at every rank the latency
   summaries read. *)
let test_percentile_patterns () =
  let n = 20_001 in
  let patterns =
    [
      ("ascending", fun i -> float_of_int i);
      ("descending", fun i -> float_of_int (n - i));
      ("constant", fun _ -> 7.0);
      ("organ pipe", fun i -> float_of_int (min i (n - i)));
      ("sawtooth", fun i -> float_of_int (i mod 17));
      ("two values", fun i -> if i mod 3 = 0 then 1.0 else 2.0);
    ]
  in
  List.iter
    (fun (name, f) ->
      let a = Array.init n f in
      let sorted = Array.copy a in
      Array.sort compare sorted;
      let values, counts = tallies a in
      List.iter
        (fun p ->
          check_float
            (Printf.sprintf "%s p=%g" name p)
            sorted.(int_of_float (float_of_int (n - 1) *. p))
            (Stats.percentile_of_counts values counts p))
        [ 0.0; 0.5; 0.95; 0.99; 1.0 ])
    patterns

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

(* Every directory entry no key has reached shares one page of absent
   slots. A write that leaked into it would show up in every other table:
   [fresh], created before key 700 is set elsewhere, and [later], created
   after, both cover page 1 with the shared page. *)
let test_int_table_shared_page () =
  let fresh = Int_table.create ~capacity:2_048 () in
  let written = Int_table.create () in
  Int_table.set written 700 3;
  Int_table.remove written 701;
  Int_table.clear written;
  Int_table.set written 700 4;
  let later = Int_table.create ~capacity:2_048 () in
  List.iter
    (fun (name, t) ->
      check_int (name ^ ": 700 absent") (-1) (Int_table.get t 700);
      check_bool (name ^ ": 700 not a member") false (Int_table.mem t 700))
    [ ("fresh table", fresh); ("table created later", later) ];
  check_int "written table keeps its binding" 4 (Int_table.get written 700);
  (* an unwritten page inside the directory, keys beyond it, negative keys *)
  Int_table.set fresh 3 1;
  List.iter
    (fun k ->
      check_int (Printf.sprintf "get %d" k) (-1) (Int_table.get fresh k);
      check_bool (Printf.sprintf "mem %d" k) false (Int_table.mem fresh k);
      Int_table.remove fresh k;
      check_int (Printf.sprintf "length after remove %d" k) 1 (Int_table.length fresh))
    [ 600; 1_023; 2_048; 1_000_000; max_int; -1; -512; -513; min_int ];
  check_int "page 0 binding untouched" 1 (Int_table.get fresh 3);
  check_int "fresh table still reads 700 as absent" (-1) (Int_table.get fresh 700)

(* [set] writes into an allocated page inline and leaves argument checks,
   directory growth and page allocation to an out-of-line path: pin both
   sides of that boundary. *)
let test_int_table_set_paths () =
  let t = Int_table.create ~capacity:1 () in
  Int_table.set t 5 7;
  (* page 0 is allocated now; page 1 (keys 512..1023) is not *)
  List.iter
    (fun (where, k) ->
      Alcotest.check_raises ("negative value, " ^ where)
        (Invalid_argument "Int_table.set: negative value") (fun () -> Int_table.set t k (-1));
      check_int ("length unchanged, " ^ where) 1 (Int_table.length t))
    [ ("bound key on an allocated page", 5); ("free key on an allocated page", 6);
      ("key on an unallocated page", 600) ];
  check_int "binding unchanged" 7 (Int_table.get t 5);
  check_int "free key still absent" (-1) (Int_table.get t 6);
  check_int "unallocated key still absent" (-1) (Int_table.get t 600);
  Int_table.set t 5 8;
  check_int "overwrite on an allocated page" 8 (Int_table.get t 5);
  check_int "overwrite keeps length" 1 (Int_table.length t);
  Int_table.set t 6 0;
  check_int "new key on an allocated page" 2 (Int_table.length t);
  (* a key past the directory of a one-page table grows it *)
  Int_table.set t 10_000 3;
  check_int "key past the directory" 3 (Int_table.get t 10_000);
  check_int "growth keeps earlier bindings" 8 (Int_table.get t 5);
  check_int "length after growth" 3 (Int_table.length t);
  Alcotest.check_raises "negative key past the directory"
    (Invalid_argument "Int_table.set: negative key") (fun () -> Int_table.set t min_int 0);
  check_int "length after a rejected key" 3 (Int_table.length t)

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
    (fun i p -> ignore (Heap.push h ~cost:p ~size:1 ~stamp:i p))
    [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ]
    (List.map (fun (_, _, v) -> v) (drain_heap h));
  check_bool "grew past its initial slots" true (Heap.slots h >= 7)

let test_heap_peek_clear () =
  let h = Heap.create () in
  check_bool "empty" true (Heap.is_empty h);
  check_int "top of empty" Heap.nil (Heap.top h);
  ignore (Heap.push h ~cost:3 ~size:1 ~stamp:0 30);
  let a = Heap.push h ~cost:1 ~size:1 ~stamp:1 10 in
  check_int "top is smallest" a (Heap.top h);
  check_int "payload" 10 (Heap.value h (Heap.top h));
  check_int "length" 2 (Heap.length h);
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h);
  check_int "top after clear" Heap.nil (Heap.top h)

let test_heap_ties_and_updates () =
  let h = Heap.create () in
  let a = Heap.push h ~cost:1 ~size:1 ~stamp:5 1 in
  let b = Heap.push h ~cost:1 ~size:1 ~stamp:2 2 in
  let c = Heap.push h ~cost:1 ~size:2 ~stamp:9 3 in
  check_int "lowest priority first" c (Heap.top h);
  Heap.update h c ~cost:2 ~size:1 ~stamp:9;
  check_int "equal priorities: smaller stamp wins" b (Heap.top h);
  Heap.update h b ~cost:1 ~size:1 ~stamp:7;
  check_int "re-stamped past a" a (Heap.top h);
  Heap.remove h a;
  check_int "after remove" b (Heap.top h);
  let d = Heap.push h ~cost:0 ~size:1 ~stamp:0 4 in
  check_int "freed handle reused" a d;
  Alcotest.(check (list int)) "drain order" [ 4; 2; 3 ]
    (List.map (fun (_, _, v) -> v) (drain_heap h))

let test_heap_rent () =
  (* priorities are floor + cost / size, the floor moving only by
     raise_floor and resetting on clear *)
  let h = Heap.create () in
  let a = Heap.push h ~cost:3 ~size:2 ~stamp:0 1 in
  let b = Heap.push h ~cost:1 ~size:1 ~stamp:1 2 in
  Alcotest.(check (float 0.0)) "cost / size" 1.5 (Heap.priority h a);
  check_int "cheaper per unit first" b (Heap.top h);
  Heap.raise_floor h b;
  Heap.remove h b;
  let c = Heap.push h ~cost:1 ~size:4 ~stamp:2 3 in
  Alcotest.(check (float 0.0)) "floor added" 1.25 (Heap.priority h c);
  Heap.update h a ~cost:1 ~size:1 ~stamp:3;
  Alcotest.(check (float 0.0)) "re-keyed from the floor" 2.0 (Heap.priority h a);
  Heap.restamp h c ~stamp:9;
  Alcotest.(check (float 0.0)) "restamp keeps the priority" 1.25 (Heap.priority h c);
  check_int "restamp keeps its place" c (Heap.top h);
  Heap.clear h;
  let d = Heap.push h ~cost:2 ~size:1 ~stamp:0 4 in
  Alcotest.(check (float 0.0)) "clear resets the floor" 2.0 (Heap.priority h d)

(* --- Int_fifo --------------------------------------------------------- *)

let test_int_fifo_bounds () =
  let q = Int_fifo.create ~bound:3 in
  check_int "no drop" (-1) (Int_fifo.push q 10);
  ignore (Int_fifo.push q 11);
  ignore (Int_fifo.push q 12);
  check_int "oldest dropped" 10 (Int_fifo.push q 13);
  check_int "then the next" 11 (Int_fifo.push q 14);
  check_int "length at the bound" 3 (Int_fifo.length q);
  Int_fifo.clear q;
  check_int "cleared" 0 (Int_fifo.length q);
  check_int "empty again" (-1) (Int_fifo.push q 15);
  let none = Int_fifo.create ~bound:0 in
  check_int "bound 0 drops what it gets" 7 (Int_fifo.push none 7);
  let huge = Int_fifo.create ~bound:max_int in
  for i = 0 to 99 do
    ignore (Int_fifo.push huge i)
  done;
  check_int "a bound near max_int holds what arrives" 100 (Int_fifo.length huge)

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

(* --- Json ------------------------------------------------------------- *)

let check_string = Alcotest.(check string)

let test_json_escape () =
  check_string "quote, backslash, newline, control byte" "a\\\"b\\\\c\\nd\\u0001e\\u001f"
    (Json.escape "a\"b\\c\nd\001e\031");
  check_string "plain bytes copied" "caf\xc3\xa9 ~" (Json.escape "caf\xc3\xa9 ~")

(* The ledger layout: the document's members one per line, a member that
   holds containers one element per line, anything deeper inline. *)
let test_json_layout () =
  let deep = Json.Obj [ ("c", Json.Arr [ Json.int 1; Json.Obj [ ("d", Json.Null) ] ]) ] in
  let v =
    Json.Obj
      [
        ("name", Json.Str "x\ty");
        ("rows", Json.Arr [ deep; Json.Arr []; Json.Bool true ]);
        ("flat", Json.Obj [ ("a", Json.num "%.2f" 0.5); ("b", Json.Str "") ]);
        ("empty", Json.Arr []);
      ]
  in
  check_string "three deep"
    "{\n\
    \  \"name\": \"x\\u0009y\",\n\
    \  \"rows\": [\n\
    \    {\"c\": [1, {\"d\": null}]},\n\
    \    [],\n\
    \    true\n\
    \  ],\n\
    \  \"flat\": {\"a\": 0.50, \"b\": \"\"},\n\
    \  \"empty\": []\n\
     }\n"
    (Json.to_string v);
  check_string "scalar document" "\"s\"\n" (Json.to_string (Json.Str "s"));
  check_string "empty document" "{}\n" (Json.to_string (Json.Obj []))

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
    (let extreme = oneof [ int; small_signed_int; oneofl [ 0; -1; 1; max_int; min_int ] ] in
     let rate = oneof [ float_range (-0.5) 1.5; oneofl [ 0.0; 1.0; Float.nan ] ] in
     Test.make ~name:"Prng one-draw primitive is the first draw of create and derive" ~count:1000
       (quad extreme extreme extreme rate)
       (fun (seed, parent_seed, index, p) ->
         let parent = Prng.create ~seed:parent_seed () in
         let top62 g = Int64.shift_right_logical (Prng.bits64 g) 2 in
         let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
         Int64.equal (Int64.of_int (Prng.first_draw ~seed)) (top62 (Prng.create ~seed ()))
         && Prng.draw_bernoulli (Prng.first_draw ~seed) ~p
            = Prng.bernoulli (Prng.create ~seed ()) ~p
         && Int64.equal
              (Int64.of_int (Prng.derive_draw parent index))
              (top62 (Prng.derive parent index))
         && same_float
              (Prng.draw_float (Prng.derive_draw parent index))
              (Prng.float (Prng.derive parent index) 1.0)
         && Prng.draw_bernoulli (Prng.derive_draw parent index) ~p
            = (Prng.float (Prng.derive parent index) 1.0 < p)));
    Test.make ~name:"Stats.percentile_of_counts equals sort-then-rank" ~count:500
      (pair
         (array_of_size Gen.(int_range 0 400)
            (oneof [ map float_of_int (int_range 0 4); float_range (-1e3) 1e3 ]))
         (oneof [ float_range 0.0 1.0; oneofl [ 0.0; 0.5; 0.95; 0.99; 1.0 ] ]))
      (fun (a, p) ->
        let sorted = Array.copy a in
        Array.sort compare sorted;
        let n = Array.length a in
        let expected = if n = 0 then 0.0 else sorted.(int_of_float (float_of_int (n - 1) *. p)) in
        let values, counts = tallies a in
        Stats.percentile_of_counts values counts p = expected);
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
        List.iteri (fun i (p, v) -> ignore (Heap.push h ~cost:p ~size:1 ~stamp:i v)) l;
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
            | 1, Some handle -> Heap.update h handle ~cost:p ~size:1 ~stamp:i
            | 2, Some handle ->
                Heap.remove h handle;
                live := List.filter (( <> ) handle) !live
            | _ -> live := Heap.push h ~cost:p ~size:1 ~stamp:i i :: !live)
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
    Test.make ~name:"Zipf sample and prob equal the binary-search reference" ~count:100
      (triple
         (oneof [ int_range 1 40_000; int_range 1 64; map (fun b -> 1 lsl b) (int_range 0 15) ])
         (oneof [ float_range 0.0 3.0; oneofl [ 0.0; 0.55; 1.0; 3.0 ] ])
         (int_range 0 1_000_000))
      (fun (n, s, seed) -> zipf_matches_reference ~n ~s ~seed ());
    Test.make ~name:"Int_table agrees with a Hashtbl model" ~count:300
      (list
         (pair
            (oneof
               [
                 int_range 0 40;
                 int_range 510 514;
                 int_range 1_022 1_026;
                 int_range 0 10_000_000;
               ])
            (int_range (-2) 20)))
      (fun ops ->
        (* value -1 encodes a removal of that key, -2 a [clear]; keys
           straddle page boundaries and reach sparsely up to 10^7 *)
        let t = Int_table.create ~capacity:1 () in
        let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
        let agrees key =
          Int_table.get t key = Option.value ~default:(-1) (Hashtbl.find_opt model key)
        in
        let dense =
          List.init 41 Fun.id @ [ 510; 511; 512; 513; 514; 1_022; 1_023; 1_024; 1_025; 1_026 ]
        in
        let bindings () =
          let acc = ref [] in
          Int_table.iter t (fun key value -> acc := (key, value) :: !acc);
          List.rev !acc
        in
        List.for_all
          (fun (k, v) ->
            if v = -2 then begin
              Int_table.clear t;
              Hashtbl.reset model
            end
            else if v < 0 then begin
              Int_table.remove t k;
              Hashtbl.remove model k
            end
            else begin
              Int_table.set t k v;
              Hashtbl.replace model k v
            end;
            Int_table.length t = Hashtbl.length model && agrees k && List.for_all agrees dense)
          ops
        && List.for_all (fun (k, _) -> agrees k) ops
        && bindings ()
           = List.sort (fun (a, _) (b, _) -> Int.compare a b) (List.of_seq (Hashtbl.to_seq model)));
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
    Test.make ~name:"Int_fifo drops exactly what a bounded list queue drops" ~count:200
      (pair (int_range 0 40) (list_of_size (Gen.int_range 0 300) (int_range 0 1_000)))
      (fun (bound, xs) ->
        let q = Int_fifo.create ~bound in
        (* the reference: a list, oldest first *)
        let model = ref [] in
        List.for_all
          (fun x ->
            let dropped = Int_fifo.push q x in
            model := !model @ [ x ];
            let expected =
              if List.length !model > bound then begin
                let oldest = List.hd !model in
                model := List.tl !model;
                oldest
              end
              else -1
            in
            dropped = expected && Int_fifo.length q = List.length !model)
          xs);
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
          Alcotest.test_case "known answers" `Quick test_prng_known_answers;
          Alcotest.test_case "draw" `Quick test_prng_draw;
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
          Alcotest.test_case "zipf reference at bucket edges" `Quick
            test_zipf_reference_bucket_edges;
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
          Alcotest.test_case "percentile patterns" `Quick test_percentile_patterns;
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
        [
          Alcotest.test_case "basics" `Quick test_int_table_basics;
          Alcotest.test_case "shared empty page is never written" `Quick
            test_int_table_shared_page;
          Alcotest.test_case "set's inline and out-of-line paths" `Quick test_int_table_set_paths;
        ] );
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
          Alcotest.test_case "rent priorities and the floor" `Quick test_heap_rent;
        ] );
      ("int_fifo", [ Alcotest.test_case "bounds, drops and growth" `Quick test_int_fifo_bounds ]);
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
      ( "json",
        [
          Alcotest.test_case "escape" `Quick test_json_escape;
          Alcotest.test_case "layout" `Quick test_json_layout;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
