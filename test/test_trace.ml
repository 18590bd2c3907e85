(* Tests for the trace substrate: events, traces, the text codec, the
   intervening-cache filter, and trace statistics. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

open Agg_trace

(* --- Event ------------------------------------------------------------ *)

let test_event_op_chars () =
  List.iter
    (fun op ->
      match Event.op_of_char (Event.op_to_char op) with
      | Some op' -> check_bool "op char roundtrip" true (op = op')
      | None -> Alcotest.fail "op char should parse")
    [ Event.Open; Event.Read; Event.Write ];
  check_bool "bad char" true (Event.op_of_char 'x' = None)

let test_event_make_defaults () =
  let e = Event.make ~seq:3 42 in
  check_int "file" 42 e.Event.file;
  check_int "client defaults to 0" 0 e.Event.client;
  check_bool "op defaults to open" true (e.Event.op = Event.Open);
  check_bool "not a write" false (Event.is_write e);
  check_bool "write is write" true (Event.is_write (Event.make ~op:Event.Write ~seq:0 1))

(* --- Trace ------------------------------------------------------------ *)

let test_trace_sequencing () =
  let t = Trace.create () in
  Trace.add_access t 10;
  Trace.add_access t 20;
  Trace.add_access t 10;
  check_int "length" 3 (Trace.length t);
  check_int "seq of second" 1 (Trace.get t 1).Event.seq;
  Alcotest.(check (array int)) "files" [| 10; 20; 10 |] (Trace.files t);
  check_int "distinct" 2 (Trace.distinct_files t)

let test_trace_of_files () =
  let t = Trace.of_files [ 1; 2; 3 ] in
  check_int "length" 3 (Trace.length t);
  check_int "fold count" 3 (Trace.fold (fun acc _ -> acc + 1) 0 t)

let test_trace_sub_concat () =
  let t = Trace.of_files [ 1; 2; 3; 4; 5 ] in
  let s = Trace.sub t ~pos:1 ~len:3 in
  Alcotest.(check (array int)) "sub files" [| 2; 3; 4 |] (Trace.files s);
  check_int "renumbered from 0" 0 (Trace.get s 0).Event.seq;
  let c = Trace.concat s (Trace.of_files [ 9 ]) in
  Alcotest.(check (array int)) "concat" [| 2; 3; 4; 9 |] (Trace.files c);
  check_int "concat renumbered" 3 (Trace.get c 3).Event.seq;
  Alcotest.check_raises "sub out of bounds" (Invalid_argument "Trace.sub: slice out of bounds")
    (fun () -> ignore (Trace.sub t ~pos:4 ~len:3))

(* --- Codec ------------------------------------------------------------ *)

let test_codec_roundtrip_string () =
  let t = Trace.create () in
  Trace.add_access t ~client:1 ~op:Event.Write 5;
  Trace.add_access t ~client:2 ~op:Event.Open 7;
  Trace.add_access t ~client:0 ~op:Event.Read 5;
  let t' = Codec.of_string (Codec.to_string t) in
  check_int "length" (Trace.length t) (Trace.length t');
  for i = 0 to Trace.length t - 1 do
    check_bool "event equal" true (Event.equal (Trace.get t i) (Trace.get t' i))
  done

let test_codec_roundtrip_file () =
  let t = Trace.of_files [ 1; 2; 3; 2; 1 ] in
  let path = Filename.temp_file "aggtrace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.write_file path t;
      let t' = Codec.read_file path in
      Alcotest.(check (array int)) "files" (Trace.files t) (Trace.files t'))

let test_codec_ignores_comments_and_blanks () =
  let t = Codec.of_string "#aggtrace v1\n\n# a comment\n0 o 0 1\n\n1 w 2 3\n" in
  check_int "two events" 2 (Trace.length t);
  check_bool "write parsed" true (Event.is_write (Trace.get t 1))

let expect_parse_error input =
  match Codec.of_string input with
  | exception Codec.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error"

let test_codec_errors () =
  expect_parse_error "#aggtrace v1\n0 z 0 1\n";
  (* bad op *)
  expect_parse_error "#aggtrace v1\n0 o 0\n";
  (* missing field *)
  expect_parse_error "#aggtrace v1\nx o 0 1\n";
  (* bad seq *)
  expect_parse_error "#aggtrace v1\n0 o 0 -4\n";
  (* negative id *)
  expect_parse_error "#wrongheader\n0 o 0 1\n"

let test_codec_error_position () =
  match Codec.of_string "#aggtrace v1\n0 o 0 1\nbogus line\n" with
  | exception Codec.Parse_error { line; _ } -> check_int "line number" 3 line
  | _ -> Alcotest.fail "expected Parse_error"

(* --- weight lines ------------------------------------------------------- *)

let some_weights () =
  Weights.of_alist
    [ (5, { Agg_cache.Policy.size = 3; cost = 7 }); (7, { Agg_cache.Policy.size = 2; cost = 2 }) ]

let test_weights_store () =
  let ws = some_weights () in
  check_bool "declared" true (Weights.get ws 5 = { Agg_cache.Policy.size = 3; cost = 7 });
  check_bool "undeclared is unit" true (Weights.get ws 6 = Agg_cache.Policy.unit_weight);
  check_int "count" 2 (Weights.count ws);
  check_bool "not unit" false (Weights.is_unit ws);
  check_bool "fresh table is unit" true (Weights.is_unit (Weights.create ()));
  Alcotest.check_raises "non-positive size rejected"
    (Invalid_argument "Weights.set: weight size must be positive (got 0)") (fun () ->
      Weights.set ws 1 { Agg_cache.Policy.size = 0; cost = 1 })

let test_codec_weights_roundtrip_string () =
  let t = Trace.of_files [ 5; 7; 5; 6 ] in
  let ws = some_weights () in
  let text = Codec.to_string ~weights:ws t in
  let t', ws' = Codec.of_string_weighted text in
  Alcotest.(check (array int)) "events" (Trace.files t) (Trace.files t');
  check_bool "weights survive" true (Weights.to_alist ws' = Weights.to_alist ws);
  (* the plain reader skips weight lines and keeps the events *)
  Alcotest.(check (array int)) "plain reader skips w lines" (Trace.files t)
    (Trace.files (Codec.of_string text))

let test_codec_weights_roundtrip_file () =
  let t = Trace.of_files [ 5; 7; 5 ] in
  let path = Filename.temp_file "aggtrace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.write_file ~weights:(some_weights ()) path t;
      let t', ws' = Codec.read_file_weighted path in
      Alcotest.(check (array int)) "files" (Trace.files t) (Trace.files t');
      check_bool "weights survive" true
        (Weights.get ws' 5 = { Agg_cache.Policy.size = 3; cost = 7 }
        && Weights.get ws' 7 = { Agg_cache.Policy.size = 2; cost = 2 });
      (* streaming folds also skip weight lines *)
      check_int "fold skips w lines" 3 (Codec.fold_file path ~init:0 ~f:(fun acc _ -> acc + 1)))

let test_codec_weight_line_errors () =
  expect_parse_error "#aggtrace v1\nw 1 0 2\n";
  (* zero size *)
  expect_parse_error "#aggtrace v1\nw 1 2 -3\n";
  (* negative cost *)
  expect_parse_error "#aggtrace v1\nw 1 2\n";
  (* missing cost *)
  expect_parse_error "#aggtrace v1\nw -1 2 3\n";
  (* bad file id *)
  match Codec.of_string "#aggtrace v1\n0 o 0 1\nw 1 0 2\n" with
  | exception Codec.Parse_error { line; message } ->
      check_int "line number" 3 line;
      check_bool "message names the field" true (message = "size must be positive (got 0)")
  | _ -> Alcotest.fail "expected Parse_error"

let test_codec_streaming () =
  let t = Trace.create () in
  Trace.add_access t ~client:1 ~op:Event.Write 5;
  Trace.add_access t 7;
  Trace.add_access t 5;
  let path = Filename.temp_file "aggtrace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.write_file path t;
      let count = Codec.fold_file path ~init:0 ~f:(fun acc _ -> acc + 1) in
      check_int "streamed count" 3 count;
      let writes = Codec.fold_file path ~init:0 ~f:(fun acc e -> if Event.is_write e then acc + 1 else acc) in
      check_int "streamed writes" 1 writes;
      let seen = ref [] in
      Codec.iter_file path (fun e -> seen := e.Event.file :: !seen);
      Alcotest.(check (list int)) "iter order" [ 5; 7; 5 ] (List.rev !seen))

let test_codec_streaming_matches_read () =
  let t = Trace.of_files [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let path = Filename.temp_file "aggtrace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.write_file path t;
      let streamed = List.rev (Codec.fold_file path ~init:[] ~f:(fun acc e -> e :: acc)) in
      let materialised = Trace.to_events (Codec.read_file path) in
      check_int "same length" (List.length materialised) (List.length streamed);
      List.iter2
        (fun a b -> check_bool "same events" true (Event.equal a b))
        materialised streamed)

(* Sequence numbers are kept as given: a file whose seqs are sparse and
   out of order, with ids near 10^12 and at [max_int], prints back byte
   for byte, through a string and through a file. *)
let test_codec_sparse_seqs_bytes () =
  let text =
    Printf.sprintf "#aggtrace v1\n7 o 3 1000000000000\n2 w 0 %d\n90 r 12 5\n90 o 1 0\n" max_int
  in
  Alcotest.(check string) "string round trip" text (Codec.to_string (Codec.of_string text));
  let path = Filename.temp_file "aggtrace" ".trc" in
  let copy = Filename.temp_file "aggtrace" ".trc" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove copy)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Codec.write_file copy (Codec.read_file path);
      Alcotest.(check string) "file round trip" text
        (In_channel.with_open_bin copy In_channel.input_all))

(* --- Filter ------------------------------------------------------------ *)

let test_filter_infinite_capacity () =
  let t = Trace.of_files [ 1; 2; 1; 3; 2; 1 ] in
  let missed = Filter.miss_stream ~capacity:1000 t in
  (* only first occurrences miss *)
  Alcotest.(check (array int)) "cold misses" [| 1; 2; 3 |] (Trace.files missed)

let test_filter_capacity_one () =
  let t = Trace.of_files [ 1; 1; 1; 2; 2; 1 ] in
  let missed = Filter.miss_stream ~capacity:1 t in
  (* immediate repeats absorbed, alternation passes *)
  Alcotest.(check (array int)) "misses" [| 1; 2; 1 |] (Trace.files missed)

let test_filter_miss_count () =
  let t = Trace.of_files [ 1; 2; 3; 1; 2; 3 ] in
  check_int "capacity 2 misses" 6 (Filter.miss_count ~capacity:2 t);
  check_int "capacity 3 misses" 3 (Filter.miss_count ~capacity:3 t)

let test_filter_renumbers () =
  let t = Trace.of_files [ 1; 1; 2 ] in
  let missed = Filter.miss_stream ~capacity:4 t in
  check_int "first seq" 0 (Trace.get missed 0).Event.seq;
  check_int "second seq" 1 (Trace.get missed 1).Event.seq

let test_filter_per_client () =
  let t = Trace.create () in
  (* interleaved clients accessing the same file: a shared filter would
     absorb the second access, private filters miss on both *)
  Trace.add_access t ~client:0 9;
  Trace.add_access t ~client:1 9;
  let shared = Filter.miss_stream ~capacity:10 t in
  let private_ = Filter.miss_stream_per_client ~capacity:10 t in
  check_int "shared absorbs" 1 (Trace.length shared);
  check_int "private does not" 2 (Trace.length private_)

let test_filter_preserves_metadata () =
  let t = Trace.create () in
  Trace.add_access t ~client:3 ~op:Event.Write 7;
  let missed = Filter.miss_stream ~capacity:2 t in
  let e = Trace.get missed 0 in
  check_int "client kept" 3 e.Event.client;
  check_bool "op kept" true (Event.is_write e)

(* The filters key their caches by dense keys, not by the trace's ids.
   A 3-client trace over 60 files, relabelled into ids from 2^30 up (the
   interner's side table), must lose exactly the events the original
   loses, at every capacity and policy, and keep its own ids. *)
let test_filter_far_ids () =
  let g = Agg_util.Prng.create ~seed:17 () in
  let t = Trace.create () in
  for _ = 1 to 2_000 do
    Trace.add_access t ~client:(Agg_util.Prng.int g 3) (Agg_util.Prng.int g 60)
  done;
  let relabel (e : Event.t) = { e with file = (1 lsl 30) + (e.file * 1_000_003) } in
  let far = Trace.of_events (List.map relabel (Trace.to_events t)) in
  List.iter
    (fun kind ->
      List.iter
        (fun capacity ->
          List.iter
            (fun (name, filter) ->
              let expected = List.map relabel (Trace.to_events (filter ~kind ~capacity t)) in
              let missed = Trace.to_events (filter ~kind ~capacity far) in
              check_bool
                (Printf.sprintf "%s, %s, capacity %d" name (Agg_cache.Cache.kind_name kind) capacity)
                true
                (List.equal Event.equal expected missed))
            [
              ("miss_stream", fun ~kind ~capacity t -> Filter.miss_stream ~kind ~capacity t);
              ( "miss_stream_per_client",
                fun ~kind ~capacity t -> Filter.miss_stream_per_client ~kind ~capacity t );
            ])
        [ 1; 10; 40 ])
    Agg_cache.Cache.all_kinds

(* --- Import -------------------------------------------------------------- *)

(* --- byte mutations ------------------------------------------------------ *)

(* One Prng-seeded single-byte substitution, deletion or insertion; half
   the new bytes come from the characters the formats are built of. *)
let mutate rng text =
  let structural = "0123456789 \n#-worw(),\"/=" in
  let byte () =
    if Agg_util.Prng.bool rng then structural.[Agg_util.Prng.int rng (String.length structural)]
    else Char.chr (Agg_util.Prng.int rng 256)
  in
  let n = String.length text in
  let i = Agg_util.Prng.int rng (n + 1) in
  match Agg_util.Prng.int rng 3 with
  | 0 when i < n -> String.mapi (fun j c -> if j = i then byte () else c) text
  | 1 when i < n -> String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
  | _ -> String.sub text 0 i ^ String.make 1 (byte ()) ^ String.sub text i (n - i)

let mutants rng text count =
  List.init count (fun _ ->
      let m = ref text in
      for _ = 0 to Agg_util.Prng.int rng 3 do
        m := mutate rng !m
      done;
      !m)

(* The weighted reader answers every mutant of a trace with w lines with
   a trace or a one-line Parse_error; the import formats read any mutant
   of their inputs without raising. *)
let test_byte_mutations () =
  let rng = Agg_util.Prng.create ~seed:29 () in
  let trc = "#aggtrace v1\n# weighted\n0 o 0 5\n1 r 1 7\nw 5 3 7\n2 w 0 5\nw 7 2 2\n3 o 2 6\n" in
  List.iter
    (fun m ->
      match Codec.of_string_weighted m with
      | _ -> ()
      | exception Codec.Parse_error { line; message } ->
          if line < 1 || String.contains message '\n' || message = "" then
            Alcotest.failf "mutant %S: line %d: %S" m line message
      | exception e -> Alcotest.failf "mutant %S raised %s" m (Printexc.to_string e))
    (mutants rng trc 3000);
  let strace =
    {|openat(AT_FDCWD, "/etc/ld.so.cache", O_RDONLY) = 3
1234 open("/a", O_RDONLY <unfinished ...>
creat("/tmp/out", 0644) = 4
open("/missing", O_RDONLY) = -1 ENOENT (No such file or directory)
|}
  in
  List.iter
    (fun m ->
      List.iter
        (fun format ->
          match Import.of_string format m with
          | _ -> ()
          | exception e -> Alcotest.failf "import of %S raised %s" m (Printexc.to_string e))
        [ Import.Paths; Import.Strace ])
    (mutants rng strace 1500 @ mutants rng "/bin/sh\n# c\n\n  /usr/bin/make \n" 1500)

let test_import_paths () =
  let input = "/bin/sh\n/usr/bin/make\n# a comment\n\n/bin/sh\n" in
  let trace, ns = Import.of_string Import.Paths input in
  check_int "three events" 3 (Trace.length trace);
  check_int "two files" 2 (File_id.Namespace.count ns);
  Alcotest.(check (array int)) "ids interned in order" [| 0; 1; 0 |] (Trace.files trace);
  check_bool "names preserved" true (File_id.Namespace.name ns 1 = Some "/usr/bin/make")

let test_import_strace () =
  let input =
    String.concat "\n"
      [
        {|openat(AT_FDCWD, "/etc/ld.so.cache", O_RDONLY|O_CLOEXEC) = 3|};
        {|open("/missing", O_RDONLY) = -1 ENOENT (No such file or directory)|};
        {|write(1, "hello", 5) = 5|};
        {|creat("/tmp/out", 0644) = 4|};
        {|openat(AT_FDCWD, "/etc/ld.so.cache", O_RDONLY) = 3|};
      ]
  in
  let trace, ns = Import.of_string Import.Strace input in
  check_int "two successful opens + creat" 3 (Trace.length trace);
  check_bool "failed open skipped" true (File_id.Namespace.find ns "/missing" = None);
  check_bool "write line skipped" true (File_id.Namespace.find ns "hello" = None);
  check_bool "creat captured" true (File_id.Namespace.find ns "/tmp/out" <> None)

let test_import_parse_line () =
  check_bool "paths comment" true (Import.parse_line Import.Paths "# x" = None);
  check_bool "paths trims" true (Import.parse_line Import.Paths "  /a  " = Some "/a");
  check_bool "strace unfinished" true
    (Import.parse_line Import.Strace {|open("/a", O_RDONLY <unfinished ...>|} = None);
  check_bool "strace pid prefix" true
    (Import.parse_line Import.Strace {|1234 openat(AT_FDCWD, "/a", O_RDONLY) = 5|} = Some "/a")

let test_import_shared_namespace () =
  let _, ns = Import.of_string Import.Paths "/a\n/b\n" in
  let trace2, ns2 = Import.of_string ~namespace:ns Import.Paths "/b\n/c\n" in
  check_bool "same namespace returned" true (ns == ns2);
  check_int "ids continue" 3 (File_id.Namespace.count ns);
  Alcotest.(check (array int)) "reuses /b's id" [| 1; 2 |] (Trace.files trace2)

(* --- Trace_stats -------------------------------------------------------- *)

let test_trace_stats () =
  let t = Trace.create () in
  Trace.add_access t ~client:0 ~op:Event.Write 1;
  Trace.add_access t ~client:1 ~op:Event.Open 1;
  Trace.add_access t ~client:0 ~op:Event.Open 2;
  Trace.add_access t ~client:0 ~op:Event.Open 1;
  let s = Trace_stats.compute t in
  check_int "events" 4 s.Trace_stats.events;
  check_int "distinct" 2 s.Trace_stats.distinct_files;
  check_int "clients" 2 s.Trace_stats.clients;
  Alcotest.(check (float 1e-9)) "write fraction" 0.25 s.Trace_stats.write_fraction;
  Alcotest.(check (float 1e-9)) "repeat fraction" 0.5 s.Trace_stats.repeat_fraction;
  check_int "max pop" 3 s.Trace_stats.max_file_popularity

let test_top_files () =
  let t = Trace.of_files [ 1; 2; 2; 3; 3; 3 ] in
  Alcotest.(check (list (pair int int)))
    "top 2"
    [ (3, 3); (2, 2) ]
    (Trace_stats.top_files t ~k:2)

(* --- Namespace ----------------------------------------------------------- *)

let test_namespace () =
  let ns = File_id.Namespace.create () in
  let a = File_id.Namespace.intern ns "/bin/sh" in
  let b = File_id.Namespace.intern ns "/usr/bin/make" in
  check_int "dense ids" 0 a;
  check_int "second id" 1 b;
  check_int "idempotent" a (File_id.Namespace.intern ns "/bin/sh");
  check_bool "find" true (File_id.Namespace.find ns "/usr/bin/make" = Some b);
  check_bool "name" true (File_id.Namespace.name ns a = Some "/bin/sh");
  check_bool "unknown name" true (File_id.Namespace.name ns 99 = None);
  check_int "count" 2 (File_id.Namespace.count ns)

(* --- Dense --------------------------------------------------------------- *)

let test_dense () =
  let key d file = (File_id.Dense.intern d file :> int) in
  let d = File_id.Dense.create () in
  (* more files than the key array's first size, ids far apart *)
  let ids = Array.init 200 (fun i -> 1_000_000 - (4_999 * i)) in
  Array.iteri (fun i id -> check_int "keys in order of first sight" i (key d id)) ids;
  check_int "a file keeps its key" 3 (key d ids.(3));
  check_bool "find" true
    (Option.map (fun (k : File_id.Dense.key) -> (k :> int)) (File_id.Dense.find d ids.(5)) = Some 5);
  check_bool "find unknown" true (File_id.Dense.find d 7 = None);
  check_int "file" ids.(150) (File_id.Dense.file d 150);
  check_bool "files" true (File_id.Dense.files d = ids);
  Alcotest.check_raises "negative file" (Invalid_argument "Int_table.set: negative key") (fun () ->
      ignore (File_id.Dense.intern d (-1)));
  Alcotest.check_raises "not a key" (Invalid_argument "File_id.Dense.file: not a key") (fun () ->
      ignore (File_id.Dense.file d 200));
  (* ids at or past 2^30 live in the side table: interleaved with small
     ids, every key still comes out in order of first sight *)
  let far = [| 1_000_000_000_000; 3; 1_000_000_000_001; max_int; 1 lsl 30; 0; (1 lsl 30) - 1 |] in
  let d = File_id.Dense.create () in
  Array.iteri (fun i id -> check_int "far keys in order of first sight" i (key d id)) far;
  Array.iteri (fun i id -> check_int "a far file keeps its key" i (key d id)) far;
  Array.iteri
    (fun i id ->
      check_int "far file" id (File_id.Dense.file d i);
      check_bool "far find" true
        (Option.map (fun (k : File_id.Dense.key) -> (k :> int)) (File_id.Dense.find d id) = Some i))
    far;
  check_bool "far files" true (File_id.Dense.files d = far);
  check_bool "find unseen far" true (File_id.Dense.find d (1_000_000_000_000 + 2) = None);
  check_bool "find unseen far max_int - 1" true (File_id.Dense.find d (max_int - 1) = None);
  Alcotest.check_raises "no key past the far ids" (Invalid_argument "File_id.Dense.file: not a key")
    (fun () -> ignore (File_id.Dense.file d (Array.length far)))

(* --- qcheck properties ----------------------------------------------------- *)

(* Events with sparse, unordered seqs, every op, and files from a small
   range, near 10^12 and at [max_int]. *)
let event_gen =
  let open QCheck.Gen in
  let file =
    frequency
      [
        (4, int_range 0 50);
        (2, map (fun k -> 1_000_000_000_000 + k) (int_range 0 50));
        (1, pure max_int);
      ]
  in
  let op = oneofl [ Event.Open; Event.Read; Event.Write ] in
  map
    (fun (seq, client, op, file) -> { Event.seq; client; op; file })
    (quad (int_range 0 1_000_000) (int_range 0 7) op file)

let events_arb =
  QCheck.make
    ~print:(Format.asprintf "%a" (Format.pp_print_list ~pp_sep:Format.pp_print_space Event.pp))
    QCheck.Gen.(list_size (int_range 0 70) event_gen)

(* The list model of [sub] and [concat]: events renumbered by position. *)
let renumbered ~from es = List.mapi (fun i (e : Event.t) -> { e with seq = from + i }) es

let columns_agree t es =
  let indexed = List.mapi (fun i e -> (i, e)) es in
  Trace.length t = List.length es
  && Trace.to_events t = es
  && List.for_all
       (fun (i, (e : Event.t)) ->
         Trace.get t i = e
         && Trace.file t i = e.file
         && Trace.client t i = e.client
         && Trace.op t i = e.op
         && Trace.is_write t i = Event.is_write e)
       indexed
  && List.rev (Trace.fold (fun acc e -> e :: acc) [] t) = es
  && (let seen = ref [] in
      Trace.iter (fun e -> seen := e :: !seen) t;
      List.rev !seen = es)
  && Trace.files t = Array.of_list (List.map (fun (e : Event.t) -> e.file) es)

let out_of_bounds f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let qcheck_tests =
  let open QCheck in
  let files_gen = list_of_size (Gen.int_range 0 200) (int_range 0 50) in
  [
    Test.make ~name:"codec roundtrip" ~count:100 files_gen (fun files ->
        let t = Trace.of_files files in
        Trace.files (Codec.of_string (Codec.to_string t)) = Trace.files t);
    Test.make ~name:"miss stream is a subsequence with fewer events" ~count:100
      (pair files_gen (int_range 1 20))
      (fun (files, capacity) ->
        let t = Trace.of_files files in
        let missed = Filter.miss_stream ~capacity t in
        Trace.length missed <= Trace.length t
        &&
        (* subsequence check on file ids *)
        let rec is_subseq i j =
          if j >= Trace.length missed then true
          else if i >= Trace.length t then false
          else if (Trace.get t i).Event.file = (Trace.get missed j).Event.file then
            is_subseq (i + 1) (j + 1)
          else is_subseq (i + 1) j
        in
        is_subseq 0 0);
    Test.make ~name:"misses at capacity c >= misses at capacity c+10 (LRU)" ~count:100
      (pair files_gen (int_range 1 20))
      (fun (files, capacity) ->
        let t = Trace.of_files files in
        Filter.miss_count ~capacity t >= Filter.miss_count ~capacity:(capacity + 10) t);
    Test.make ~name:"miss count >= distinct files (compulsory misses)" ~count:100
      (pair files_gen (int_range 1 20))
      (fun (files, capacity) ->
        let t = Trace.of_files files in
        Filter.miss_count ~capacity t >= Trace.distinct_files t);
    Test.make ~name:"columns hold what of_events was given" ~count:200 events_arb (fun es ->
        let t = Trace.of_events es in
        (* appended one by one, the columns grow from empty *)
        let grown = Trace.create ~capacity:0 () in
        List.iter (Trace.append grown) es;
        let n = List.length es in
        columns_agree t es && columns_agree grown es
        && List.for_all
             (fun i ->
               out_of_bounds (fun () -> Trace.get t i)
               && out_of_bounds (fun () -> Trace.file t i)
               && out_of_bounds (fun () -> Trace.client t i)
               && out_of_bounds (fun () -> Trace.op t i)
               && out_of_bounds (fun () -> Trace.is_write grown i))
             [ -1; n; n + 20 ]);
    Test.make ~name:"sub and concat renumber as the list model" ~count:200
      (triple events_arb events_arb (pair small_nat small_nat))
      (fun (a, b, (pos, len)) ->
        let ta = Trace.of_events a and tb = Trace.of_events b in
        let n = List.length a in
        let sub_ok =
          if pos + len <= n then
            Trace.to_events (Trace.sub ta ~pos ~len)
            = renumbered ~from:0 (List.filteri (fun i _ -> i >= pos && i < pos + len) a)
          else out_of_bounds (fun () -> Trace.sub ta ~pos ~len)
        in
        sub_ok
        && out_of_bounds (fun () -> Trace.sub ta ~pos:(-1) ~len:0)
        && out_of_bounds (fun () -> Trace.sub ta ~pos:0 ~len:(-1))
        && Trace.to_events (Trace.concat ta tb) = a @ renumbered ~from:n b);
    Test.make ~name:"codec keeps every field of every event" ~count:200 events_arb (fun es ->
        let text = Codec.to_string (Trace.of_events es) in
        let t = Codec.of_string text in
        Trace.to_events t = es && Codec.to_string t = text);
  ]

let () =
  Alcotest.run "agg_trace"
    [
      ( "event",
        [
          Alcotest.test_case "op chars" `Quick test_event_op_chars;
          Alcotest.test_case "defaults" `Quick test_event_make_defaults;
        ] );
      ( "trace",
        [
          Alcotest.test_case "sequencing" `Quick test_trace_sequencing;
          Alcotest.test_case "of_files" `Quick test_trace_of_files;
          Alcotest.test_case "sub and concat" `Quick test_trace_sub_concat;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip string" `Quick test_codec_roundtrip_string;
          Alcotest.test_case "roundtrip file" `Quick test_codec_roundtrip_file;
          Alcotest.test_case "comments and blanks" `Quick test_codec_ignores_comments_and_blanks;
          Alcotest.test_case "errors" `Quick test_codec_errors;
          Alcotest.test_case "error position" `Quick test_codec_error_position;
          Alcotest.test_case "streaming fold/iter" `Quick test_codec_streaming;
          Alcotest.test_case "streaming matches read" `Quick test_codec_streaming_matches_read;
          Alcotest.test_case "sparse seqs print back byte for byte" `Quick
            test_codec_sparse_seqs_bytes;
        ] );
      ( "weights",
        [
          Alcotest.test_case "store" `Quick test_weights_store;
          Alcotest.test_case "roundtrip string" `Quick test_codec_weights_roundtrip_string;
          Alcotest.test_case "roundtrip file" `Quick test_codec_weights_roundtrip_file;
          Alcotest.test_case "weight line errors" `Quick test_codec_weight_line_errors;
        ] );
      ( "filter",
        [
          Alcotest.test_case "infinite capacity" `Quick test_filter_infinite_capacity;
          Alcotest.test_case "capacity one" `Quick test_filter_capacity_one;
          Alcotest.test_case "miss count" `Quick test_filter_miss_count;
          Alcotest.test_case "far ids" `Quick test_filter_far_ids;
          Alcotest.test_case "renumbers" `Quick test_filter_renumbers;
          Alcotest.test_case "per client" `Quick test_filter_per_client;
          Alcotest.test_case "preserves metadata" `Quick test_filter_preserves_metadata;
        ] );
      ( "import",
        [
          Alcotest.test_case "paths" `Quick test_import_paths;
          Alcotest.test_case "strace" `Quick test_import_strace;
          Alcotest.test_case "parse_line" `Quick test_import_parse_line;
          Alcotest.test_case "shared namespace" `Quick test_import_shared_namespace;
          Alcotest.test_case "byte mutations" `Quick test_byte_mutations;
        ] );
      ( "stats",
        [
          Alcotest.test_case "compute" `Quick test_trace_stats;
          Alcotest.test_case "top files" `Quick test_top_files;
        ] );
      ("namespace", [ Alcotest.test_case "intern" `Quick test_namespace ]);
      ("dense", [ Alcotest.test_case "intern" `Quick test_dense ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
