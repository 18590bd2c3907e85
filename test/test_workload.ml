(* Tests for the synthetic workload substrate: task construction, the
   generator's determinism and statistical knobs, and the four calibrated
   paper profiles. *)

open Agg_workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Task.build --------------------------------------------------------- *)

let build_task ?(shared_fraction = 0.3) ?(loop_chance = 0.2) ~length () =
  let prng = Agg_util.Prng.create ~seed:3 () in
  let next = ref 100 in
  let fresh_file () =
    incr next;
    !next
  in
  let shared_zipf = Agg_util.Dist.Zipf.create ~n:10 ~s:1.1 in
  Task.build ~prng ~id:0 ~length ~shared_pool:10 ~shared_fraction ~shared_zipf ~fresh_file
    ~loop_chance

let test_task_length () =
  let t = build_task ~length:25 () in
  check_int "length" 25 (Task.length t);
  Alcotest.check_raises "length 0" (Invalid_argument "Task.build: length must be positive")
    (fun () -> ignore (build_task ~length:0 ()))

let test_task_no_consecutive_duplicates () =
  let t = build_task ~length:200 () in
  for i = 1 to Task.length t - 1 do
    check_bool "no immediate repeat" true (t.Task.files.(i) <> t.Task.files.(i - 1))
  done

let test_task_private_files_fresh () =
  let t = build_task ~shared_fraction:0.0 ~length:50 () in
  (* with no shared draws, every file is freshly allocated and unique *)
  let sorted = List.sort_uniq compare (Array.to_list t.Task.files) in
  check_int "all distinct" 50 (List.length sorted);
  Array.iter (fun f -> check_bool "private id range" true (f > 100)) t.Task.files

let test_task_loop_points () =
  let t = build_task ~loop_chance:1.0 ~length:30 () in
  check_int "no loop before position 2" 0 t.Task.loop_width.(0);
  check_int "no loop at position 1" 0 t.Task.loop_width.(1);
  Array.iteri
    (fun i w ->
      if i >= 2 then check_bool "loop width bounds" true (w >= 2 && w <= 6 && w <= i))
    t.Task.loop_width

let test_task_no_loops_when_disabled () =
  let t = build_task ~loop_chance:0.0 ~length:30 () in
  Array.iter (fun w -> check_int "no loops" 0 w) t.Task.loop_width

(* --- Generator ----------------------------------------------------------- *)

let test_generator_exact_event_count () =
  List.iter
    (fun profile ->
      let trace = Generator.generate ~seed:5 ~events:500 profile in
      check_int (profile.Profile.name ^ " events") 500 (Agg_trace.Trace.length trace))
    Profile.all

let test_generator_deterministic () =
  let a = Generator.generate_files ~seed:11 ~events:2000 Profile.server in
  let b = Generator.generate_files ~seed:11 ~events:2000 Profile.server in
  Alcotest.(check (array int)) "same seed, same trace" a b

let test_generator_seed_sensitivity () =
  let a = Generator.generate_files ~seed:1 ~events:500 Profile.server in
  let b = Generator.generate_files ~seed:2 ~events:500 Profile.server in
  check_bool "different seeds differ" true (a <> b)

let test_generator_files_matches_generate () =
  let a = Generator.generate_files ~seed:9 ~events:800 Profile.workstation in
  let b = Agg_trace.Trace.files (Generator.generate ~seed:9 ~events:800 Profile.workstation) in
  Alcotest.(check (array int)) "same stream" a b

let test_generator_zero_events () =
  check_int "empty trace" 0 (Agg_trace.Trace.length (Generator.generate ~events:0 Profile.server));
  Alcotest.check_raises "negative"
    (Invalid_argument "Generator.generate: events must be non-negative") (fun () ->
      ignore (Generator.generate ~events:(-1) Profile.server))

let test_generator_client_ids_in_range () =
  let trace = Generator.generate ~seed:4 ~events:3000 Profile.users in
  Agg_trace.Trace.iter
    (fun (e : Agg_trace.Event.t) ->
      check_bool "client id" true (e.Agg_trace.Event.client >= 0 && e.client < Profile.users.Profile.clients))
    trace

let test_generator_write_fraction () =
  let trace = Generator.generate ~seed:4 ~events:30000 Profile.write in
  let s = Agg_trace.Trace_stats.compute trace in
  Alcotest.(check (float 0.03))
    "write share near p_write" Profile.write.Profile.p_write s.Agg_trace.Trace_stats.write_fraction

let test_generator_single_client_profiles () =
  let trace = Generator.generate ~seed:4 ~events:2000 Profile.server in
  let s = Agg_trace.Trace_stats.compute trace in
  check_int "one client" 1 s.Agg_trace.Trace_stats.clients

(* MD5 of the trace text of [generate ~seed:7 ~events:6000] for every
   profile. The profiles are calibrated, so a change to [Prng], [Dist] or
   the generator must leave every generated trace bit-identical. *)
let generator_known_answers =
  [
    ("workstation", "c27e142adcd4df084d4fd3a91cf9db57");
    ("users", "328e605f6715cfc7f6860491f088d3ab");
    ("write", "edbace625bf05a250b9c7242835bb0fd");
    ("server", "9c9b21974ec2e1068b72e900b6c85f0b");
    ("scientific", "df5efe0c76d7024943dd52e2c54204d3");
    ("streaming", "9cd5cd283f91cfa246d4f9a5baaa98f5");
    ("sized-workstation", "c27e142adcd4df084d4fd3a91cf9db57");
    ("sized-server", "9c9b21974ec2e1068b72e900b6c85f0b");
  ]

let test_generator_known_answers () =
  List.iter
    (fun (p : Profile.t) ->
      match List.assoc_opt p.name generator_known_answers with
      | None -> Alcotest.failf "no known answer for profile %s" p.name
      | Some md5 ->
          let text = Agg_trace.Codec.to_string (Generator.generate ~seed:7 ~events:6_000 p) in
          Alcotest.(check string) p.name md5 (Digest.to_hex (Digest.string text)))
    (Profile.all @ Profile.extras)

(* --- Profiles --------------------------------------------------------------- *)

let test_profile_lookup () =
  List.iter
    (fun p ->
      match Profile.by_name p.Profile.name with
      | Some found -> check_bool "by_name finds" true (found == p)
      | None -> Alcotest.fail "profile should be found")
    Profile.all;
  check_bool "unknown" true (Profile.by_name "nfs" = None)

let test_profile_estimates () =
  List.iter
    (fun p ->
      let est = Profile.distinct_file_estimate p in
      check_bool (p.Profile.name ^ " estimate positive") true (est > 0);
      (* the generator cannot touch more files than estimated plus the
         mutation-allocated tail; loose sanity bound *)
      let trace = Generator.generate ~seed:3 ~events:20000 p in
      check_bool
        (p.Profile.name ^ " distinct below 2x estimate")
        true
        (Agg_trace.Trace.distinct_files trace < 2 * est))
    Profile.all

(* A tiny local successor-entropy implementation so this test does not
   depend on agg_entropy (dependency direction: workload tests stay below
   the metric library). *)
module Agg_entropy_stub = struct
  let entropy files =
    let tables : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 256 in
    for i = 0 to Array.length files - 2 do
      let t =
        match Hashtbl.find_opt tables files.(i) with
        | Some t -> t
        | None ->
            let t = Hashtbl.create 4 in
            Hashtbl.replace tables files.(i) t;
            t
      in
      let c = Option.value ~default:0 (Hashtbl.find_opt t files.(i + 1)) in
      Hashtbl.replace t files.(i + 1) (c + 1)
    done;
    let num = ref 0.0 and den = ref 0 in
    Hashtbl.iter
      (fun _ t ->
        let total = Hashtbl.fold (fun _ c acc -> acc + c) t 0 in
        if total >= 2 then begin
          let h =
            Hashtbl.fold
              (fun _ c acc ->
                let p = float_of_int c /. float_of_int total in
                acc -. (p *. (Float.log p /. Float.log 2.0)))
              t 0.0
          in
          num := !num +. (float_of_int total *. h);
          den := !den + total
        end)
      tables;
    if !den = 0 then 0.0 else !num /. float_of_int !den
end

(* The calibration facts the experiments rely on; they pin the profile
   parameters against accidental drift. *)
let test_profile_calibration_ordering () =
  let entropy p = Agg_entropy_stub.entropy (Generator.generate_files ~seed:7 ~events:30000 p) in
  let server = entropy Profile.server in
  let workstation = entropy Profile.workstation in
  let users = entropy Profile.users in
  let write = entropy Profile.write in
  check_bool "server most predictable" true
    (server < workstation && server < users && server < write);
  check_bool "server under one bit" true (server < 1.0)

let () =
  Alcotest.run "agg_workload"
    [
      ( "task",
        [
          Alcotest.test_case "length" `Quick test_task_length;
          Alcotest.test_case "no consecutive duplicates" `Quick test_task_no_consecutive_duplicates;
          Alcotest.test_case "private files fresh" `Quick test_task_private_files_fresh;
          Alcotest.test_case "loop points" `Quick test_task_loop_points;
          Alcotest.test_case "no loops when disabled" `Quick test_task_no_loops_when_disabled;
        ] );
      ( "generator",
        [
          Alcotest.test_case "exact event count" `Quick test_generator_exact_event_count;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_generator_seed_sensitivity;
          Alcotest.test_case "files matches generate" `Quick test_generator_files_matches_generate;
          Alcotest.test_case "zero events" `Quick test_generator_zero_events;
          Alcotest.test_case "client ids in range" `Quick test_generator_client_ids_in_range;
          Alcotest.test_case "write fraction" `Quick test_generator_write_fraction;
          Alcotest.test_case "single client profiles" `Quick test_generator_single_client_profiles;
          Alcotest.test_case "known answers" `Quick test_generator_known_answers;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "lookup" `Quick test_profile_lookup;
          Alcotest.test_case "estimates" `Quick test_profile_estimates;
          Alcotest.test_case "calibration ordering" `Slow test_profile_calibration_ordering;
        ] );
    ]
