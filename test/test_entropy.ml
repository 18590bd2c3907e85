(* Tests for the successor-entropy metric (paper §4.5, Eq. 2). The
   crafted cases pin the definition exactly: conditional entropy of the
   next-L symbol given the file, access-weighted, over files occurring
   more than once, with truncated windows dropped. *)

open Agg_entropy

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let repeat n pattern = Array.concat (List.init n (fun _ -> Array.of_list pattern))

let test_deterministic_cycle_is_zero () =
  let files = repeat 50 [ 1; 2; 3; 4 ] in
  check_float "L=1" 0.0 (Entropy.of_files ~length:1 files);
  check_float "L=3" 0.0 (Entropy.of_files ~length:3 files)

let test_two_way_split_is_half_bit_weighted () =
  (* pattern a b a c: successors of a are b and c with equal counts, so
     H(a) = 1 bit; b and c deterministically return to a, H = 0. The last
     event's window is truncated, so the weights are 200 (a), 100 (b) and
     99 (c): H_S = 200/399. *)
  let files = repeat 100 [ 0; 1; 0; 2 ] in
  check_float "H_S = 200/399" (200.0 /. 399.0) (Entropy.of_files ~length:1 files)

let test_single_occurrence_files_excluded () =
  (* an entirely non-repeating trace must NOT look predictable *)
  let files = Array.init 100 (fun i -> i) in
  check_float "no repeats -> 0 by convention" 0.0 (Entropy.of_files files);
  (* and mixing unique files into a predictable loop leaves the loop's
     entropy visible rather than averaging it away: each unique file
     perturbs the loop successors, so H > 0 but stays small *)
  let mixed = Array.concat [ repeat 50 [ 1; 2; 3 ]; Array.init 50 (fun i -> 100 + i) ] in
  let h = Entropy.of_files mixed in
  check_bool "perturbed loop small but positive" true (h >= 0.0 && h < 0.5)

let test_uniform_random_near_log_m () =
  let prng = Agg_util.Prng.create ~seed:9 () in
  let m = 8 in
  let files = Array.init 40000 (fun _ -> Agg_util.Prng.int prng m) in
  let h = Entropy.of_files files in
  check_bool "close to log2 m" true (h > 2.8 && h <= 3.01)

let test_entropy_bounded_by_log_successors () =
  (* H(f) can never exceed log2(distinct successors); with 2 successors
     per file the weighted average is at most 1 bit *)
  let files = repeat 200 [ 0; 1; 0; 2; 0; 1; 0; 2 ] in
  check_bool "bounded" true (Entropy.of_files files <= 1.0 +. 1e-9)

let test_longer_symbols_monotone_on_mixture () =
  (* mixing two interleavings makes longer symbols strictly less
     predictable; entropy must not decrease with L *)
  let prng = Agg_util.Prng.create ~seed:4 () in
  let parts =
    List.init 200 (fun _ ->
        if Agg_util.Prng.bool prng then [ 1; 2; 3; 4; 5 ] else [ 1; 3; 2; 5; 4 ])
  in
  let files = Array.concat (List.map Array.of_list parts) in
  let sweep = Entropy.sweep ~lengths:[ 1; 2; 4; 8 ] files in
  let rec non_decreasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && non_decreasing rest
    | _ -> true
  in
  check_bool "monotone in L" true (non_decreasing sweep)

let test_truncated_windows_dropped () =
  (* a trace shorter than the window contributes nothing *)
  check_float "too short" 0.0 (Entropy.of_files ~length:10 [| 1; 2; 1; 2 |]);
  check_float "empty" 0.0 (Entropy.of_files [||])

let test_invalid_length () =
  Alcotest.check_raises "length 0" (Invalid_argument "Entropy.of_files: length must be positive")
    (fun () -> ignore (Entropy.of_files ~length:0 [| 1 |]))

let test_of_trace_agrees () =
  let files = repeat 20 [ 3; 1; 4; 1; 5 ] in
  let trace = Agg_trace.Trace.of_files (Array.to_list files) in
  check_float "of_trace = of_files" (Entropy.of_files files) (Entropy.of_trace trace)

let test_per_file () =
  let files = repeat 50 [ 0; 1; 0; 2 ] in
  let rows = Entropy.per_file files in
  (* only file 0 repeats with multiple successors; 1 and 2 repeat too *)
  Alcotest.(check int) "three repeated files" 3 (List.length rows);
  List.iter
    (fun (file, occ, h) ->
      check_bool "occurrences >= 2" true (occ >= 2);
      if file = 0 then check_bool "H(0) = 1" true (Float.abs (h -. 1.0) < 1e-9)
      else check_bool "H = 0 for deterministic" true (Float.abs h < 1e-9))
    rows

let test_per_client_unscrambles_interleaving () =
  (* two deterministic cycles, one per client, interleaved: globally the
     successors alternate (H > 0); per client each stream is perfectly
     predictable (H = 0) *)
  (* cycle lengths 2 and 3 drift out of phase, so the *global* successor
     of each file varies while each client stream stays deterministic *)
  let trace = Agg_trace.Trace.create () in
  let c0 = [| 1; 2 |] and c1 = [| 10; 20; 30 |] in
  for i = 0 to 299 do
    Agg_trace.Trace.add_access trace ~client:0 c0.(i mod 2);
    Agg_trace.Trace.add_access trace ~client:1 c1.(i mod 3)
  done;
  check_bool "global entropy positive" true (Entropy.of_trace trace > 0.5);
  check_float "per-client entropy zero" 0.0 (Entropy.per_client trace)

let test_per_client_single_client_matches_global () =
  let trace =
    Agg_workload.Generator.generate ~seed:3 ~events:5000 Agg_workload.Profile.server
  in
  check_float "one client: identical" (Entropy.of_trace trace) (Entropy.per_client trace)

let test_filtered_sweep_shape () =
  let trace =
    Agg_workload.Generator.generate ~seed:3 ~events:5000 Agg_workload.Profile.workstation
  in
  let sweeps = Entropy.filtered_sweep ~filter_capacities:[ 5; 50 ] ~lengths:[ 1; 2 ] trace in
  Alcotest.(check int) "two capacities" 2 (List.length sweeps);
  List.iter
    (fun (capacity, sweep) ->
      check_bool "capacity echoed" true (capacity = 5 || capacity = 50);
      Alcotest.(check int) "two lengths" 2 (List.length sweep);
      List.iter (fun (_, h) -> check_bool "entropy non-negative" true (h >= 0.0)) sweep)
    sweeps

(* --- qcheck properties ----------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  let files_gen = list_of_size (Gen.int_range 10 500) (int_range 0 20) in
  [
    Test.make ~name:"entropy is non-negative and bounded by log2(distinct)" ~count:100 files_gen
      (fun files ->
        let arr = Array.of_list files in
        let h = Entropy.of_files arr in
        let distinct = List.length (List.sort_uniq compare files) in
        h >= 0.0 && h <= Agg_util.Stats.log2 (float_of_int (max 2 distinct)) +. 1e-9);
    Test.make ~name:"doubling a trace's repetitions cannot raise L=1 entropy much" ~count:50
      files_gen (fun files ->
        (* repeating the same sequence adds the wrap-around pair only *)
        let once = Array.of_list files in
        let twice = Array.append once once in
        Entropy.of_files twice <= Entropy.of_files once +. 1.0);
    Test.make ~name:"per_file rows all have >= 2 occurrences" ~count:100 files_gen (fun files ->
        List.for_all (fun (_, occ, h) -> occ >= 2 && h >= 0.0)
          (Entropy.per_file (Array.of_list files)));
  ]

(* Each id replaced by its rank among the stream's distinct ids. *)
let renumber_densely files =
  let ids = List.sort_uniq Int.compare (Array.to_list files) in
  let rank = Hashtbl.create 64 in
  List.iteri (fun i f -> Hashtbl.replace rank f i) ids;
  Array.map (Hashtbl.find rank) files

(* File ids spread over 10^12 .. 10^12 + 10^9 · n: the CSR layout of
   [of_files] cannot be sized by such ids, so they are relabelled by rank,
   which must give the dense stream's value bit for bit. *)
let test_sparse_ids_equal_dense () =
  let sparse f = 1_000_000_000_000 + (f * 1_000_000_007) in
  let dense =
    Agg_workload.Generator.generate_files ~seed:3 ~events:4000 Agg_workload.Profile.server
  in
  let ranked = renumber_densely dense in
  let spread = Array.map sparse dense in
  List.iter
    (fun length ->
      let expected = Entropy.of_files ~length ranked in
      Alcotest.(check int64)
        (Printf.sprintf "L=%d bits" length)
        (Int64.bits_of_float expected)
        (Int64.bits_of_float (Entropy.of_files ~length spread));
      Alcotest.(check int64)
        (Printf.sprintf "L=%d bits, unranked dense ids" length)
        (Int64.bits_of_float expected)
        (Int64.bits_of_float (Entropy.of_files ~length dense)))
    [ 1; 2; 3; 5 ];
  (* the five-line trace of a single huge id pair *)
  let huge = 1_000_000_000_000 in
  check_float "five accesses, two huge ids"
    (Entropy.of_files [| 0; 1; 0; 1; 0 |])
    (Entropy.of_files [| huge; huge + 1; huge; huge + 1; huge |])

let () =
  Alcotest.run "agg_entropy"
    [
      ( "crafted",
        [
          Alcotest.test_case "deterministic cycle" `Quick test_deterministic_cycle_is_zero;
          Alcotest.test_case "two-way split" `Quick test_two_way_split_is_half_bit_weighted;
          Alcotest.test_case "single occurrences excluded" `Quick
            test_single_occurrence_files_excluded;
          Alcotest.test_case "uniform random" `Quick test_uniform_random_near_log_m;
          Alcotest.test_case "bounded by successors" `Quick test_entropy_bounded_by_log_successors;
          Alcotest.test_case "monotone in symbol length" `Quick
            test_longer_symbols_monotone_on_mixture;
          Alcotest.test_case "truncated windows" `Quick test_truncated_windows_dropped;
          Alcotest.test_case "invalid length" `Quick test_invalid_length;
          Alcotest.test_case "of_trace agrees" `Quick test_of_trace_agrees;
          Alcotest.test_case "per_file" `Quick test_per_file;
          Alcotest.test_case "per-client unscrambles interleaving" `Quick
            test_per_client_unscrambles_interleaving;
          Alcotest.test_case "per-client single client" `Quick
            test_per_client_single_client_matches_global;
          Alcotest.test_case "filtered sweep shape" `Quick test_filtered_sweep_shape;
          Alcotest.test_case "sparse ids equal dense" `Quick test_sparse_ids_equal_dense;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
