(* Tests for the declarative scenario engine: the strict text codec and
   its round-trip law, the executor's invariant checks, the corpus
   (which must stay green at CI size, with the known-bad entry failing),
   and the fuzz/shrink discipline pinned to an exact minimal scenario. *)

open Agg_scenario
module Plan = Agg_faults.Plan
module Cache = Agg_cache.Cache

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

(* The corpus directory: [../scenarios] from the test's cwd under
   `dune runtest` (_build/.../test), [scenarios] under `dune exec` from
   the project root. *)
let corpus_dir = if Sys.file_exists "../scenarios" then "../scenarios" else "scenarios"
let sweeps_dir = Filename.concat corpus_dir "sweeps"

let base =
  {
    Scenario.name = "crafted";
    workload = Scenario.Profile { profile = "workstation"; events = 2000; seed = 3 };
    topology = Scenario.Fleet { clients = 2; client_capacity = 100; server_capacity = 200 };
    faults = Plan.none;
    policies = [ Scenario.Plain Cache.Lru; Scenario.Group 5 ];
    sweeps = [];
    invariants = Scenario.all_invariants;
    expectations = [];
    slos = [];
    expect_violation = false;
  }

(* A path topology; its server is plain LRU and its costs LAN unless
   given. *)
let path ?(server = Scenario.Plain Cache.Lru) ?(cost = Scenario.Lan) client_capacity
    server_capacity =
  Scenario.Path { client_capacity; server_capacity; server; cost }

(* --- codec --------------------------------------------------------------- *)

let roundtrip s =
  match Scenario.of_string (Scenario.to_string s) with
  | Ok s' -> s'
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg

let test_roundtrip_crafted () =
  let cluster =
    {
      base with
      Scenario.name = "crafted-cluster";
      topology =
        Scenario.Cluster
          {
            nodes = 5;
            replicas = 3;
            placement = Agg_cluster.Cluster.Replicated_with_group;
            ring_seed = 23;
            clients = 6;
            client_capacity = 150;
            node_capacity = 300;
            churn = [ (500, Agg_cluster.Cluster.Leave 2); (900, Agg_cluster.Cluster.Join 2) ];
          };
      faults = Plan.default;
      policies = [ Scenario.Plain Cache.Arc; Scenario.Group 1; Scenario.Group 10 ];
      expectations =
        [
          Scenario.Hit_rate_min { policy = Scenario.Group 10; percent = 12.5 };
          Scenario.Hit_rate_max { policy = Scenario.Plain Cache.Arc; percent = 99.0 };
        ];
      slos =
        [
          { Scenario.slo_metric = Scenario.Slo_hit_rate; slo_policy = Scenario.Group 10;
            slo_bound = `Min 12.5; slo_window = 1000; slo_after = 2000 };
          { Scenario.slo_metric = Scenario.Slo_degraded_rate;
            slo_policy = Scenario.Plain Cache.Arc; slo_bound = `Max 40.0; slo_window = 1000;
            slo_after = 0 };
        ];
      expect_violation = true;
    }
  in
  let swept =
    {
      cluster with
      Scenario.name = "crafted-sweep";
      sweeps =
        [
          Scenario.Replicas [ 3; 1 ];
          Scenario.Placement [ Agg_cluster.Cluster.Replicated_with_group; Agg_cluster.Cluster.Owner_node ];
          Scenario.Loss [ 0.1; 0.0; 1.0 /. 3.0 ];
          Scenario.Clients [ 6; 12 ];
        ];
      expectations =
        [
          Scenario.Ordered
            { order = Scenario.Below; metric = "hit_rate"; field = "policy"; lhs = "arc"; rhs = "g10" };
          Scenario.Ordered
            { order = Scenario.At_most; metric = "faults.degraded_fetches"; field = "replicas";
              lhs = "3"; rhs = "1" };
        ];
    }
  in
  List.iter
    (fun s -> check_bool "round-trips" true (roundtrip s = s))
    [ base; cluster; swept;
      { base with Scenario.topology = path 10 20 };
      { base with Scenario.topology = path ~server:(Scenario.Group 10) ~cost:Scenario.Wan 10 20 };
      { base with
        Scenario.topology = path ~server:(Scenario.Plain Cache.Arc) 10 20;
        sweeps =
          [ Scenario.Cost [ Scenario.Lan; Scenario.Wan ];
            Scenario.Server [ Scenario.Plain Cache.Arc; Scenario.Group 10 ] ];
        expectations =
          [ Scenario.Ordered
              { order = Scenario.At_most; metric = "server_hits"; field = "server"; lhs = "arc";
                rhs = "g10" } ] } ]

let test_roundtrip_comments_skipped () =
  let text = Scenario.to_string base in
  let with_comments = "#scenario v1\n# a comment\n\n" ^ String.concat "\n" (List.tl (String.split_on_char '\n' text)) in
  match Scenario.of_string with_comments with
  | Ok s -> check_bool "comments and blanks ignored" true (s = base)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let expect_error text fragment =
  match Scenario.of_string text with
  | Ok _ -> Alcotest.failf "expected a parse error containing %S" fragment
  | Error msg ->
      check_bool (Printf.sprintf "error %S contains %S" msg fragment) true
        (contains ~needle:fragment msg)

let test_codec_rejections () =
  let hdr = "#scenario v1\n" in
  let errors =
    [
      ("name x\n", "line 1: expected");
      (hdr ^ "bogus 1\n", "line 2: unknown line keyword \"bogus\"");
      (hdr ^ "workload profile name=server events=5 seed=1 extra=2\n", "unknown field \"extra\"");
      (hdr ^ "workload profile name=server events=5\n", "missing field \"seed\"");
      (hdr ^ "workload profile name=server events=five seed=1\n", "not an integer");
      (hdr ^ "workload profile name=server events=5 seed=1 events=6\n", "duplicate field \"events\"");
      (hdr ^ "workload profile junk\n", "expected key=value");
      (hdr ^ "topology ring x=1\n", "unknown topology \"ring\"");
      (hdr ^ "churn time=5 op=leave node=0\n", "churn is only valid after a cluster topology");
      (hdr ^ "policy turbo\n", "unknown policy \"turbo\"");
      (hdr ^ "invariant sorted\n", "unknown invariant \"sorted\"");
      (hdr ^ "expect hit_rate policy=lru min=1 max=2\n", "min or max, not both");
      (hdr ^ "slo\n", "slo needs a metric");
      (hdr ^ "slo tail policy=lru min=1 window=100\n", "unknown slo metric \"tail\"");
      (hdr ^ "slo hit_rate policy=lru min=1 max=2 window=100\n", "min or max, not both");
      (hdr ^ "slo hit_rate policy=lru window=100\n", "slo needs min= or max=");
      (hdr ^ "slo hit_rate policy=lru min=1\n", "missing field \"window\"");
      ( hdr ^ "name a\nname b\n", "line 3: duplicate name line" );
      ("", "line 1: expected");
    ]
  in
  List.iter (fun (text, fragment) -> expect_error text fragment) errors

let test_codec_missing_sections () =
  expect_error "#scenario v1\n" "missing name line";
  expect_error
    "#scenario v1\nname a\nworkload trace file=t.trc\ntopology path client_capacity=1 server_capacity=1\n"
    "missing policy line"

(* Every malformed sweep or ordering line is a one-line error naming the
   line it is on, even when what it contradicts comes later in the file. *)
let test_sweep_rejections () =
  let file ?(topology = "topology fleet clients=2 client_capacity=100 server_capacity=200") lines =
    String.concat "\n"
      ([ "#scenario v1"; "name s"; "workload profile name=server events=100 seed=1"; topology;
         "policy lru"; "policy g5" ]
      @ lines)
    ^ "\n"
  in
  let path = "topology path client_capacity=10 server_capacity=20" in
  let cluster =
    "topology cluster nodes=3 replicas=1 placement=owner ring_seed=1 clients=2 client_capacity=10 \
     node_capacity=20"
  in
  let no_windows = "faults seed=1 loss=0 outage_period=0 outage_rate=0 outage_length=200 slow=0 \
                    slow_mult=1 crash=0" in
  let windows = "faults seed=1 loss=0 outage_period=1000 outage_rate=0 outage_length=200 slow=0 \
                 slow_mult=1 crash=0" in
  let cases =
    [
      (file [ "sweep speed=1,2" ], "line 7: unknown sweep field \"speed\"");
      (file [ "sweep loss=0"; "sweep loss=0.1" ], "line 8: duplicate sweep field \"loss\"");
      (file [ "sweep loss=" ], "line 7: sweep loss has an empty value");
      (file [ "sweep loss=0,,1" ], "line 7: sweep loss has an empty value");
      (file [ "sweep loss" ], "line 7: malformed sweep \"loss\"");
      (file [ "sweep loss=0 clients=2" ], "line 7: sweep takes exactly one");
      (file [ "sweep" ], "line 7: sweep takes exactly one");
      (file [ "sweep loss=0,x" ], "line 7: sweep loss value \"x\" is not a number");
      (file [ "sweep clients=1.5" ], "line 7: sweep clients value \"1.5\" is not an integer");
      (file [ "sweep loss=0,1.5" ], "line 7: sweep loss value 1.5 is outside [0, 1]");
      (* fault rates that cannot act *)
      ( file
          [ "faults seed=1 loss=0 outage_period=0 outage_rate=0.9 outage_length=200 slow=0 \
             slow_mult=1 crash=0" ],
        "line 7: faults outage_rate=0.9 needs outage_period and outage_length above 0" );
      ( file
          [ "faults seed=1 loss=0 outage_period=1000 outage_rate=0.9 outage_length=0 slow=0 \
             slow_mult=1 crash=0" ],
        "line 7: faults outage_rate=0.9 needs outage_period and outage_length above 0" );
      ( file
          [ "faults seed=1 loss=0 outage_period=0 outage_rate=0 outage_length=0 slow=0.5 \
             slow_mult=1 crash=0" ],
        "line 7: faults slow=0.5 needs slow_mult above 1" );
      (file [ "sweep outage_rate=-0.1" ], "line 7: sweep outage_rate value -0.1 is outside [0, 1]");
      (file ~topology:cluster [ "sweep replicas=0,1" ], "line 7: sweep replicas value 0 must be positive");
      (file [ "sweep clients=2,0" ], "line 7: sweep clients value 0 must be positive");
      (file [ "sweep loss=0.1,0.10" ], "line 7: sweep loss repeats value 0.1");
      (file ~topology:cluster [ "sweep placement=owner,nowhere" ], "line 7: sweep placement value \"nowhere\" is not a placement");
      (file [ "sweep replicas=1,2" ], "line 7: sweep replicas needs a cluster topology");
      (file ~topology:path [ "sweep placement=owner" ], "line 7: sweep placement needs a cluster topology");
      (file ~topology:path [ "sweep clients=1,2" ], "line 7: sweep clients needs a fleet or cluster");
      ( file [ "expect below metric=speed field=policy lhs=lru rhs=g5" ],
        "line 7: unknown metric \"speed\"" );
      ( file [ "expect below metric=hit_rate field=color lhs=lru rhs=g5" ],
        "line 7: unknown field \"color\"" );
      ( file [ "expect at_most metric=hit_rate field=loss lhs=0 rhs=0.1" ],
        "line 7: expect field loss is not swept" );
      ( file [ "expect at_most metric=hit_rate field=clients lhs=2 rhs=8"; "sweep clients=2,4" ],
        "line 7: expect clients=8 is not on the clients axis" );
      ( file [ "expect below metric=hit_rate field=policy lhs=lru rhs=g9" ],
        "line 7: expect policy=g9 is not on the policy axis" );
      ( file [ "expect below metric=hit_rate field=policy lhs=lru" ],
        "line 7: missing field \"rhs\"" );
      ( file [ "expect below metric=hit_rate field=loss lhs=zero rhs=0"; "sweep loss=0,0.1" ],
        "line 7: lhs value \"zero\" is not a number" );
      (* the path's server and cost fields, and their axes *)
      (file ~topology:(path ^ " cost=moon") [], "line 4: unknown cost \"moon\" (expected lan or wan)");
      (file ~topology:(path ^ " server=g0") [], "line 4: unknown policy \"g0\"");
      (file ~topology:(path ^ " server=lru server=g5") [], "line 4: duplicate field \"server\"");
      ( file ~topology:"topology fleet clients=2 client_capacity=100 server_capacity=200 server=g10" [],
        "line 4: unknown field \"server\"" );
      (file ~topology:(cluster ^ " cost=wan") [], "line 4: unknown field \"cost\"");
      (file [ "sweep server=lru,g10" ], "line 7: sweep server needs a path topology");
      (file ~topology:cluster [ "sweep cost=lan,wan" ], "line 7: sweep cost needs a path topology");
      (file ~topology:path [ "sweep cost=lan,moon" ], "line 7: sweep cost value \"moon\" is not a cost");
      ( file ~topology:path [ "sweep server=lru,g" ],
        "line 7: sweep server value \"g\" is not a policy" );
      (file ~topology:path [ "sweep server=g5,g05" ], "line 7: sweep server repeats value g5");
      ( file ~topology:(path ^ " server=g10") [ "sweep server=lru,g10" ],
        "line 7: swept server differs on its base line from its first value lru" );
      ( file ~topology:(path ^ " cost=wan") [ "sweep cost=lan,wan" ],
        "line 7: swept cost differs on its base line from its first value lan" );
      ( file [ "sweep clients=4,2" ],
        "line 7: swept clients differs on its base line from its first value 4" );
      (* values that cannot act *)
      ( file
          ~topology:
            "topology cluster nodes=3 replicas=4 placement=owner ring_seed=1 clients=2 \
             client_capacity=10 node_capacity=20"
          [],
        "line 4: replicas=4 exceeds nodes=3" );
      (file ~topology:cluster [ "sweep replicas=1,3,9" ], "line 7: sweep replicas value 9 exceeds nodes=3");
      ( file [ "sweep outage_rate=0,0.5"; no_windows ],
        "line 7: sweep outage_rate needs outage_period and outage_length above 0 on the faults line" );
      ( file [ "sweep outage_rate=0,0.5" ],
        "line 7: sweep outage_rate needs outage_period and outage_length above 0" );
      (* a topology line after the sweep it rules out *)
      ( String.concat "\n"
          [ "#scenario v1"; "name s"; "sweep replicas=1,2"; "workload trace file=t.trc"; path;
            "policy lru"; "" ],
        "line 3: sweep replicas needs a cluster topology" );
    ]
  in
  List.iter
    (fun (text, fragment) ->
      match Scenario.of_string text with
      | Ok _ -> Alcotest.failf "expected an error containing %S" fragment
      | Error msg ->
          check_bool (Printf.sprintf "error %S starts with %S" msg fragment) true
            (String.length msg >= String.length fragment
            && String.sub msg 0 (String.length fragment) = fragment);
          check_bool "one line" false (String.contains msg '\n'))
    cases;
  (* each field parses on the topology that has it *)
  List.iter
    (fun text ->
      match Scenario.of_string text with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "rejected a valid sweep: %s" msg)
    [
      file [ "sweep loss=0,0.5"; "sweep outage_rate=0,1"; "sweep clients=2,4"; windows ];
      file ~topology:cluster
        [ "sweep replicas=1,3"; "sweep placement=owner,group,client"; "sweep clients=2";
          "expect at_most metric=faults.degraded_fetches field=replicas lhs=3 rhs=1";
          "expect below metric=hit_rate field=policy lhs=lru rhs=g5" ];
      file ~topology:path [ "sweep loss=0,0.1" ];
      file
        [ "faults seed=1 loss=0 outage_period=1000 outage_rate=0.9 outage_length=200 slow=0.5 \
           slow_mult=2 crash=0" ];
      file
        ~topology:(path ^ " server=g5 cost=wan")
        [ "sweep server=g5,lru,arc"; "sweep cost=wan,lan";
          "expect at_most metric=server_hits field=server lhs=lru rhs=g5";
          "expect below metric=mean_latency field=cost lhs=lan rhs=wan" ];
    ]

(* A swept field's value on its base line must be the axis's first value:
   the scenario with its sweep lines removed is then exactly its first
   point, which is what the shrinker falls back to when it drops an axis. *)
let test_sweep_base_value () =
  let swept = { base with Scenario.sweeps = [ Scenario.Clients [ 2; 4; 8 ]; Scenario.Loss [ 0.0; 0.2 ] ] } in
  Scenario.validate swept;
  (match Scenario.points swept with
  | (point, first) :: rest ->
      check_string "first point" "clients=2 loss=0" (Scenario.point_name point);
      check_bool "the first point is the base without its sweep" true
        (first = { swept with Scenario.sweeps = [] });
      check_int "cross product" 5 (List.length rest);
      Alcotest.(check (list string))
        "last axis fastest"
        [ "clients=2 loss=0.2"; "clients=4 loss=0"; "clients=4 loss=0.2"; "clients=8 loss=0";
          "clients=8 loss=0.2" ]
        (List.map (fun (p, _) -> Scenario.point_name p) rest);
      List.iter
        (fun (p, (t : Scenario.t)) ->
          match t.Scenario.topology with
          | Scenario.Fleet { clients; _ } ->
              check_string "clients in place" (List.assoc "clients" p) (string_of_int clients);
              check_string "loss in place" (List.assoc "loss" p)
                (Printf.sprintf "%g" t.Scenario.faults.Plan.loss_rate)
          | _ -> Alcotest.fail "topology changed kind")
        rest
  | [] -> Alcotest.fail "no points");
  check_bool "no sweep, one empty point" true (Scenario.points base = [ ([], base) ]);
  let raises what t =
    match Scenario.validate t with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "validate accepted %s" what
  in
  raises "a base value off the axis's first value"
    { base with Scenario.sweeps = [ Scenario.Clients [ 4; 2 ] ] };
  raises "a base loss off the axis's first value"
    { base with Scenario.sweeps = [ Scenario.Loss [ 0.1; 0.0 ] ] };
  raises "a duplicate sweep field"
    { base with Scenario.sweeps = [ Scenario.Loss [ 0.0 ]; Scenario.Loss [ 0.0; 0.1 ] ] };
  raises "an empty axis" { base with Scenario.sweeps = [ Scenario.Clients [] ] };
  raises "replicas on a fleet" { base with Scenario.sweeps = [ Scenario.Replicas [ 1 ] ] };
  raises "a server axis on a fleet"
    { base with Scenario.sweeps = [ Scenario.Server [ Scenario.Plain Cache.Lru ] ] };
  let on_path = { base with Scenario.topology = path ~server:(Scenario.Group 10) 100 200 } in
  raises "a base server off the axis's first value"
    { on_path with Scenario.sweeps = [ Scenario.Server [ Scenario.Plain Cache.Lru; Scenario.Group 10 ] ] };
  raises "a base cost off the axis's first value"
    { on_path with Scenario.sweeps = [ Scenario.Cost [ Scenario.Wan; Scenario.Lan ] ] };
  raises "a non-positive server group" { base with Scenario.topology = path ~server:(Scenario.Group 0) 1 1 };
  raises "a non-positive server group on an axis"
    { on_path with Scenario.sweeps = [ Scenario.Server [ Scenario.Group 10; Scenario.Group 0 ] ] };
  (* values that cannot act: more replicas than nodes, outage rates
     without outage windows *)
  let ring replicas =
    Scenario.Cluster
      { nodes = 3; replicas; placement = Agg_cluster.Cluster.Owner_node; ring_seed = 1; clients = 2;
        client_capacity = 10; node_capacity = 20; churn = [] }
  in
  Scenario.validate { base with Scenario.topology = ring 3; sweeps = [ Scenario.Replicas [ 3; 1 ] ] };
  raises "replicas above nodes" { base with Scenario.topology = ring 4 };
  raises "a replicas value above nodes"
    { base with Scenario.topology = ring 3; sweeps = [ Scenario.Replicas [ 3; 9 ] ] };
  let outages f = { base with Scenario.faults = f; sweeps = [ Scenario.Outage_rate [ 0.0; 0.5 ] ] } in
  let windows = { Plan.none with Plan.outage_period = 1000; outage_length = 400 } in
  Scenario.validate (outages windows);
  raises "an outage axis without an outage period"
    (outages { windows with Plan.outage_period = 0 });
  raises "an outage axis without an outage length"
    (outages { windows with Plan.outage_length = 0 });
  raises "an ordering on an unswept field"
    { base with
      Scenario.expectations =
        [ Scenario.Ordered
            { order = Scenario.Below; metric = "hit_rate"; field = "loss"; lhs = "0"; rhs = "0.1" } ] };
  raises "an ordering of a value with itself"
    { base with
      Scenario.expectations =
        [ Scenario.Ordered
            { order = Scenario.Below; metric = "hit_rate"; field = "policy"; lhs = "lru"; rhs = "lru" } ] }

(* Prng-seeded byte mutations of every corpus and sweep file: the parser
   answers each mutant with a scenario or a one-line error that starts
   [line N:], and validate rejects a parsed one only with
   Invalid_argument. *)
let mutate rng text =
  let structural = "=, \n#0123456789.-eginpx_" in
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

let test_byte_mutations () =
  let rng = Agg_util.Prng.create ~seed:31 () in
  let located msg =
    match String.index_opt msg ':' with
    | Some k when k > 5 && String.sub msg 0 5 = "line " ->
        int_of_string_opt (String.sub msg 5 (k - 5)) <> None
    | _ -> false
  in
  List.iter
    (fun file ->
      let text = In_channel.with_open_text file In_channel.input_all in
      for _ = 1 to 400 do
        let mutant = ref text in
        for _ = 0 to Agg_util.Prng.int rng 3 do
          mutant := mutate rng !mutant
        done;
        match Scenario.of_string !mutant with
        | Error msg ->
            if String.contains msg '\n' || not (located msg) then
              Alcotest.failf "%s: mutant %S gave the error %S" file !mutant msg
        | Ok s -> (
            match Scenario.validate s with
            | () | (exception Invalid_argument _) -> ()
            | exception e ->
                Alcotest.failf "%s: validate raised %s on %S" file (Printexc.to_string e) !mutant)
        | exception e ->
            Alcotest.failf "%s: of_string raised %s on %S" file (Printexc.to_string e) !mutant
      done)
    (Agg_sim.Scenarios.corpus_files corpus_dir @ Agg_sim.Scenarios.corpus_files sweeps_dir)

(* Every committed file is in canonical form: it prints exactly its own
   lines, comments and blank lines left out, and reads back unchanged. *)
let test_committed_files_print_as_read () =
  List.iter
    (fun file ->
      let text = In_channel.with_open_text file In_channel.input_all in
      let lines = List.filter (fun l -> l <> "" && l.[0] <> '#') (String.split_on_char '\n' text) in
      match Scenario.load_file file with
      | Error msg -> Alcotest.failf "%s" msg
      | Ok s ->
          check_string (Filename.basename file ^ " prints as it reads")
            (String.concat "\n" ("#scenario v1" :: lines) ^ "\n")
            (Scenario.to_string s);
          check_bool (Filename.basename file ^ " round-trips") true (roundtrip s = s))
    (Agg_sim.Scenarios.corpus_files corpus_dir @ Agg_sim.Scenarios.corpus_files sweeps_dir)

let test_load_file_errors () =
  (match Scenario.load_file (Filename.concat corpus_dir "no-such.scn") with
  | Ok _ -> Alcotest.fail "expected an error for a missing file"
  | Error msg -> check_bool "names the path" true (contains ~needle:"no-such.scn" msg));
  let bad = Filename.temp_file "scenario" ".scn" in
  Out_channel.with_open_text bad (fun oc -> output_string oc "#scenario v1\nname x\nnonsense\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      match Scenario.load_file bad with
      | Ok _ -> Alcotest.fail "expected an error for a corrupt file"
      | Error msg ->
          check_bool "names path and line" true
            (contains ~needle:bad msg
            && contains ~needle:"line 3" msg))

(* --- validate ------------------------------------------------------------- *)

let test_validate () =
  let raises what t =
    match Scenario.validate t with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "validate accepted %s" what
  in
  Scenario.validate base;
  raises "empty policies" { base with Scenario.policies = [] };
  let outages = { Plan.none with Plan.outage_rate = 0.9; outage_period = 1000; outage_length = 200 } in
  Scenario.validate { base with Scenario.faults = outages };
  raises "an outage rate without an outage period"
    { base with Scenario.faults = { outages with Plan.outage_period = 0 } };
  raises "an outage rate without an outage length"
    { base with Scenario.faults = { outages with Plan.outage_length = 0 } };
  Scenario.validate
    { base with Scenario.faults = { Plan.none with Plan.slow_rate = 0.5; slow_multiplier = 2.0 } };
  raises "a slow rate at slow_mult 1"
    { base with Scenario.faults = { Plan.none with Plan.slow_rate = 0.5 } };
  raises "duplicate policy"
    { base with Scenario.policies = [ Scenario.Group 5; Scenario.Group 5 ] };
  raises "duplicate invariant"
    { base with Scenario.invariants = [ Scenario.Conservation; Scenario.Conservation ] };
  raises "orphan expectation"
    { base with
      Scenario.expectations = [ Scenario.Hit_rate_min { policy = Scenario.Group 9; percent = 1.0 } ] };
  raises "percent out of range"
    { base with
      Scenario.expectations =
        [ Scenario.Hit_rate_min { policy = Scenario.Plain Cache.Lru; percent = 101.0 } ] };
  raises "bad fault plan" { base with Scenario.faults = { Plan.none with Plan.loss_rate = 1.5 } };
  raises "zero clients"
    { base with
      Scenario.topology = Scenario.Fleet { clients = 0; client_capacity = 1; server_capacity = 1 } };
  raises "bad name" { base with Scenario.name = "has space" };
  let slo ?(metric = Scenario.Slo_hit_rate) ?(policy = Scenario.Group 5)
      ?(bound = `Min 10.0) ?(window = 500) ?(after = 0) () =
    { Scenario.slo_metric = metric; slo_policy = policy; slo_bound = bound;
      slo_window = window; slo_after = after }
  in
  Scenario.validate { base with Scenario.slos = [ slo () ] };
  raises "duplicate slo" { base with Scenario.slos = [ slo (); slo () ] };
  raises "mixed slo windows"
    { base with Scenario.slos = [ slo (); slo ~metric:Scenario.Slo_degraded_rate ~window:1000 () ] };
  raises "non-positive slo window" { base with Scenario.slos = [ slo ~window:0 () ] };
  raises "negative slo after" { base with Scenario.slos = [ slo ~after:(-1) () ] };
  raises "slo rate bound out of range"
    { base with Scenario.slos = [ slo ~bound:(`Min 150.0) () ] };
  raises "orphan slo policy" { base with Scenario.slos = [ slo ~policy:(Scenario.Group 9) () ] };
  Scenario.validate
    { base with Scenario.slos = [ slo ~metric:Scenario.Slo_p99_latency ~bound:(`Max 50.0) () ] };
  Scenario.validate
    { base with
      Scenario.topology = path 100 200;
      slos = [ slo ~metric:Scenario.Slo_p99_latency ~bound:(`Max 50.0) () ] }

(* --- qcheck: codec round-trip over generated scenarios -------------------- *)

let gen_scenario =
  let open QCheck.Gen in
  let name_gen =
    let* n = int_range 1 12 in
    let* chars = list_size (return n) (oneofl [ 'a'; 'b'; 'z'; '0'; '7'; '-'; '_'; '.' ]) in
    return (String.init n (List.nth chars))
  in
  let policy_gen =
    oneof
      [
        map (fun k -> Scenario.Plain k) (oneofl Cache.all_kinds);
        map (fun g -> Scenario.Group g) (int_range 1 16);
      ]
  in
  let rate_gen =
    oneof
      [ oneofl [ 0.0; 0.1; 0.25; 0.5; 1.0 ]; map (fun n -> float_of_int n /. 997.0) (int_range 0 997) ]
  in
  let workload_gen =
    oneof
      [
        (let* profile = oneofl [ "workstation"; "users"; "write"; "server"; "scientific"; "streaming" ] in
         let* events = int_range 100 50_000 in
         let* seed = int_range 0 1_000_000 in
         return (Scenario.Profile { profile; events; seed }));
        map (fun f -> Scenario.Trace_file { file = "traces/" ^ f ^ ".trc" }) name_gen;
        (let* format = oneofl [ Agg_trace.Import.Paths; Agg_trace.Import.Strace ] in
         let* f = name_gen in
         return (Scenario.Import_file { format; file = f }));
      ]
  in
  let topology_gen =
    oneof
      [
        (let* c = int_range 1 500 and* s = int_range 1 2000 in
         let* server = policy_gen and* cost = oneofl [ Scenario.Lan; Scenario.Wan ] in
         return (path ~server ~cost c s));
        (let* n = int_range 1 32 and* c = int_range 1 500 and* s = int_range 1 2000 in
         return (Scenario.Fleet { clients = n; client_capacity = c; server_capacity = s }));
        (let* nodes = int_range 1 9 in
         let* replicas = int_range 1 nodes in
         let* placement = oneofl Agg_cluster.Cluster.placements in
         let* ring_seed = int_range 0 10_000 in
         let* clients = int_range 1 32 in
         let* client_capacity = int_range 1 500 in
         let* node_capacity = int_range 1 2000 in
         let* churn =
           list_size (int_range 0 3)
             (let* time = int_range 0 10_000 in
              let* node = int_range 0 (nodes - 1) in
              let* op =
                oneofl [ (fun n -> Agg_cluster.Cluster.Join n); (fun n -> Agg_cluster.Cluster.Leave n) ]
              in
              return (time, op node))
         in
         return
           (Scenario.Cluster
              { nodes; replicas; placement; ring_seed; clients; client_capacity; node_capacity; churn }));
      ]
  in
  let faults_gen =
    let* seed = int_range 0 1_000_000 in
    let* loss_rate = rate_gen in
    let* outage_period = oneofl [ 0; 500; 2000 ] in
    let* outage_length = int_range 0 500 in
    (* only rates that can act: outages need windows, slow links a
       multiplier above 1 *)
    let* outage_rate =
      if outage_period > 0 && outage_length > 0 then rate_gen else return 0.0
    in
    let* slow_multiplier = map (fun n -> 1.0 +. (float_of_int n /. 10.0)) (int_range 0 40) in
    let* slow_rate = if slow_multiplier > 1.0 then rate_gen else return 0.0 in
    let* crash_rate = rate_gen in
    return
      { Plan.seed; loss_rate; outage_period; outage_rate; outage_length; slow_rate;
        slow_multiplier; crash_rate }
  in
  let* name = name_gen in
  let* workload = workload_gen in
  let* topology = topology_gen in
  let* faults = faults_gen in
  let* policies = list_size (int_range 1 5) policy_gen in
  (* the codec does not require a valid matrix, but keep names distinct so
     structural equality is meaningful *)
  let policies =
    List.sort_uniq (fun a b -> String.compare (Scenario.policy_name a) (Scenario.policy_name b)) policies
  in
  let* invariants =
    QCheck.Gen.map
      (fun mask -> List.filteri (fun idx _ -> List.nth mask idx) Scenario.all_invariants)
      (list_size (return (List.length Scenario.all_invariants)) bool)
  in
  (* any subset of the fields the topology has, in any order, each with
     distinct values valid for it: replicas up to the node count, and an
     outage rate only where the plan has outage windows *)
  let* sweeps =
    let outage =
      if faults.Plan.outage_period > 0 && faults.Plan.outage_length > 0 then [ `Outage ] else []
    in
    let fields, nodes =
      match topology with
      | Scenario.Path _ -> ([ `Loss; `Server; `Cost ] @ outage, 1)
      | Scenario.Fleet _ -> ([ `Loss; `Clients ] @ outage, 1)
      | Scenario.Cluster { nodes; _ } -> ([ `Loss; `Clients; `Replicas; `Placement ] @ outage, nodes)
    in
    let* chosen = shuffle_l fields in
    let* n = int_range 0 (List.length chosen) in
    let distinct gen = map (List.sort_uniq compare) (list_size (int_range 1 4) gen) in
    flatten_l
      (List.map
         (function
           | `Loss -> map (fun l -> Scenario.Loss l) (distinct rate_gen)
           | `Outage -> map (fun l -> Scenario.Outage_rate l) (distinct rate_gen)
           | `Clients -> map (fun l -> Scenario.Clients l) (distinct (int_range 1 32))
           | `Replicas -> map (fun l -> Scenario.Replicas l) (distinct (int_range 1 nodes))
           | `Placement ->
               map (fun l -> Scenario.Placement l) (distinct (oneofl Agg_cluster.Cluster.placements))
           | `Server ->
               map
                 (fun l -> Scenario.Server l)
                 (map
                    (List.sort_uniq (fun a b ->
                         String.compare (Scenario.policy_name a) (Scenario.policy_name b)))
                    (list_size (int_range 1 4) policy_gen))
           | `Cost -> map (fun l -> Scenario.Cost l) (distinct (oneofl [ Scenario.Lan; Scenario.Wan ])))
         (List.filteri (fun k _ -> k < n) chosen))
  in
  (* each swept field's base-line value is its axis's first value: the
     first point with the sweeps put back *)
  let base_at_first sweeps =
    let t = { base with Scenario.topology; faults; sweeps } in
    let _, first = List.hd (Scenario.points t) in
    (first.Scenario.topology, first.Scenario.faults)
  in
  let topology, faults = base_at_first sweeps in
  let* expectations =
    let axes =
      ("policy", List.map Scenario.policy_name policies)
      :: List.map (fun s -> (Scenario.sweep_field s, Scenario.sweep_labels s)) sweeps
    in
    list_size (int_range 0 3)
      (oneof
         [
           (let* policy = oneofl (Array.of_list policies |> Array.to_list) in
            let* percent = map (fun n -> float_of_int n /. 10.0) (int_range 0 1000) in
            let* kind = bool in
            return
              (if kind then Scenario.Hit_rate_min { policy; percent }
               else Scenario.Hit_rate_max { policy; percent }));
           (let* field, labels = oneofl axes in
            let* lhs = oneofl labels and* rhs = oneofl labels in
            let* metric = oneofl Scenario.metric_names in
            let* order = oneofl [ Scenario.Below; Scenario.At_most ] in
            return (Scenario.Ordered { order; metric; field; lhs; rhs }));
         ])
  in
  let* expect_violation = bool in
  let* slos =
    let* window = oneofl [ 250; 1000; 4000 ] in
    list_size (int_range 0 2)
      (let* slo_policy = oneofl (Array.of_list policies |> Array.to_list) in
       let* slo_metric = oneofl Scenario.all_slo_metrics in
       let* v = map (fun n -> float_of_int n /. 10.0) (int_range 0 1000) in
       let* kind = bool in
       let* slo_after = oneofl [ 0; 500; 2000 ] in
       return
         {
           Scenario.slo_metric;
           slo_policy;
           slo_bound = (if kind then `Min v else `Max v);
           slo_window = window;
           slo_after;
         })
  in
  (* the round-trip law needs distinct lines, like the policy matrix *)
  let slos =
    List.sort_uniq (fun a b -> String.compare (Scenario.slo_name a) (Scenario.slo_name b)) slos
  in
  return
    { Scenario.name; workload; topology; faults; policies; sweeps; invariants; expectations; slos;
      expect_violation }

let qcheck_tests =
  let arb = QCheck.make ~print:Scenario.to_string gen_scenario in
  [
    QCheck.Test.make ~name:"of_string (to_string s) = Ok s" ~count:300 arb (fun s ->
        match Scenario.of_string (Scenario.to_string s) with
        | Ok s' -> s' = s
        | Error _ -> false);
    QCheck.Test.make ~name:"one-line errors carry a line number" ~count:100 arb (fun s ->
        let text = Scenario.to_string s ^ "mystery line\n" in
        match Scenario.of_string text with
        | Ok _ -> false
        | Error msg ->
            (not (String.contains msg '\n'))
            && String.length msg > 5
            && String.sub msg 0 5 = "line ");
  ]

(* --- executor ------------------------------------------------------------- *)

let run_ok ?jobs ?events_cap s =
  match Exec.run ?jobs ?events_cap s with
  | Ok o -> o
  | Error msg -> Alcotest.failf "Exec.run failed: %s" msg

let test_exec_invariants_pass () =
  let o = run_ok base in
  check_int "one cell per policy" (List.length base.Scenario.policies) (List.length o.Exec.cells);
  check_int "one check per invariant" (List.length base.Scenario.invariants)
    (List.length o.Exec.checks);
  check_bool "all invariants pass" true o.Exec.pass;
  check_bool "verdict ok" true o.Exec.ok;
  List.iter
    (fun (c : Exec.cell) ->
      check_bool "accesses metric present" true (Exec.metric c "accesses" = Some 2000.0))
    o.Exec.cells

let test_exec_expectation_failure () =
  let failing =
    { base with
      Scenario.expectations =
        [ Scenario.Hit_rate_min { policy = Scenario.Plain Cache.Lru; percent = 99.5 } ] }
  in
  let o = run_ok failing in
  check_bool "fails the expectation" false o.Exec.pass;
  check_bool "verdict not ok" false o.Exec.ok;
  let o' = run_ok { failing with Scenario.expect_violation = true } in
  check_bool "still failing" false o'.Exec.pass;
  check_bool "but ok when violation is expected" true o'.Exec.ok

let test_exec_trace_file_errors () =
  let missing =
    { base with Scenario.workload = Scenario.Trace_file { file = "no-such-trace.trc" } }
  in
  (match Exec.run missing with
  | Ok _ -> Alcotest.fail "expected an error for a missing trace"
  | Error msg ->
      check_bool "names the trace path" true
        (contains ~needle:"no-such-trace.trc" msg));
  let bad = Filename.temp_file "trace" ".trc" in
  Out_channel.with_open_text bad (fun oc -> output_string oc "#aggtrace v1\ngarbage here\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      match Exec.run { base with Scenario.workload = Scenario.Trace_file { file = bad } } with
      | Ok _ -> Alcotest.fail "expected an error for a corrupt trace"
      | Error msg ->
          check_bool "reports path and line" true
            (contains ~needle:bad msg
            && contains ~needle:"line 2" msg))

let test_exec_unknown_profile () =
  match Exec.run { base with Scenario.workload = Scenario.Profile { profile = "nope"; events = 100; seed = 1 } } with
  | Ok _ -> Alcotest.fail "expected an unknown-profile error"
  | Error msg -> check_bool "names the profile" true (contains ~needle:"nope" msg)

(* SLO rules evaluate the per-cell series windows; a trivially satisfiable
   bound passes (reporting how many windows were checked) and an impossible
   one fails pinning the first violating window's access range. *)
let test_exec_slo_pass_and_fail () =
  let slo bound =
    { Scenario.slo_metric = Scenario.Slo_hit_rate; slo_policy = Scenario.Group 5;
      slo_bound = bound; slo_window = 500; slo_after = 0 }
  in
  let find_check (o : Exec.outcome) needle =
    match
      List.find_opt (fun (c : Exec.check) -> contains ~needle c.Exec.check_name) o.Exec.checks
    with
    | Some c -> c
    | None -> Alcotest.failf "no check named like %S" needle
  in
  (* cells carry a series only when slo rules ask for one *)
  let plain = run_ok base in
  List.iter
    (fun (c : Exec.cell) -> check_bool "no series without slos" true (c.Exec.series = None))
    plain.Exec.cells;
  let good = run_ok { base with Scenario.slos = [ slo (`Min 0.0) ] } in
  List.iter
    (fun (c : Exec.cell) -> check_bool "series present with slos" true (c.Exec.series <> None))
    good.Exec.cells;
  let c = find_check good "slo hit_rate" in
  check_bool "satisfiable slo passes" true c.Exec.pass;
  check_bool "detail counts the windows" true (contains ~needle:"windows checked" c.Exec.detail);
  check_bool "outcome ok" true good.Exec.ok;
  let bad = run_ok { base with Scenario.slos = [ slo (`Min 99.9) ] } in
  let c = find_check bad "slo hit_rate" in
  check_bool "impossible slo fails" false c.Exec.pass;
  check_bool "detail pins window 0" true
    (contains ~needle:"window 0 (accesses 0..499)" c.Exec.detail);
  check_bool "detail names the metric" true (contains ~needle:"hit_rate=" c.Exec.detail);
  check_bool "outcome fails" false bad.Exec.pass;
  let expected =
    run_ok { base with Scenario.slos = [ slo (`Min 99.9) ]; expect_violation = true }
  in
  check_bool "ok when the violation is expected" true expected.Exec.ok;
  (* [base] is a fleet, a one-node cluster whose cells report latency *)
  let p99 bound = { (slo bound) with Scenario.slo_metric = Scenario.Slo_p99_latency } in
  let c = find_check (run_ok { base with Scenario.slos = [ p99 (`Max 1000.0) ] }) "slo p99" in
  check_bool "fleet p99 slo passes" true c.Exec.pass;
  check_bool "every fleet window has a p99" true (contains ~needle:"4 windows checked" c.Exec.detail);
  let c = find_check (run_ok { base with Scenario.slos = [ p99 (`Max 0.0) ] }) "slo p99" in
  check_bool "fleet p99 slo fails" false c.Exec.pass;
  check_bool "detail names the p99" true (contains ~needle:"p99_latency=" c.Exec.detail)

(* after= skips the cold-start windows: a bound that fails from a cold
   cache can still hold once only warm windows are checked *)
let test_exec_slo_after_skips_warmup () =
  let slo after =
    { Scenario.slo_metric = Scenario.Slo_degraded_rate; slo_policy = Scenario.Plain Cache.Lru;
      slo_bound = `Max 100.0; slo_window = 500; slo_after = after }
  in
  let checked (o : Exec.outcome) =
    match
      List.find_opt
        (fun (c : Exec.check) -> contains ~needle:"slo degraded_rate" c.Exec.check_name)
        o.Exec.checks
    with
    | Some c -> c
    | None -> Alcotest.fail "slo check missing"
  in
  let all = checked (run_ok { base with Scenario.slos = [ slo 0 ] }) in
  let late = checked (run_ok { base with Scenario.slos = [ slo 1500 ] }) in
  check_bool "both pass (max=100 is vacuous)" true (all.Exec.pass && late.Exec.pass);
  let count (c : Exec.check) =
    match String.split_on_char ' ' c.Exec.detail with
    | n :: _ -> int_of_string n
    | [] -> Alcotest.fail "empty detail"
  in
  check_int "after=0 checks every window" 4 (count all);
  check_int "after=1500 drops the first three windows" 1 (count late)

(* --- sweeps ---------------------------------------------------------------- *)

let find_check (o : Exec.outcome) prefix =
  match
    List.find_opt (fun (c : Exec.check) -> String.starts_with ~prefix c.Exec.check_name) o.Exec.checks
  with
  | Some c -> c
  | None -> Alcotest.failf "no check named %s..." prefix

let users = Scenario.Profile { profile = "users"; events = 2000; seed = 3 }

let swept_fleet =
  { base with
    Scenario.workload = users;
    topology = Scenario.Fleet { clients = 2; client_capacity = 100; server_capacity = 200 };
    sweeps = [ Scenario.Clients [ 2; 8 ]; Scenario.Loss [ 0.0; 0.2 ] ];
    invariants = [ Scenario.Conservation; Scenario.Every_request_served ] }

(* Cells are the policy matrix crossed with the sweep, policy-major, then
   in point order; the render and the ledger label each with its point. *)
let test_exec_sweep_cells () =
  let o = run_ok swept_fleet in
  Alcotest.(check (list string))
    "cell order"
    [
      "policy=lru clients=2 loss=0"; "policy=lru clients=2 loss=0.2"; "policy=lru clients=8 loss=0";
      "policy=lru clients=8 loss=0.2"; "policy=g5 clients=2 loss=0"; "policy=g5 clients=2 loss=0.2";
      "policy=g5 clients=8 loss=0"; "policy=g5 clients=8 loss=0.2";
    ]
    (List.map Exec.cell_label o.Exec.cells);
  check_bool "render labels each cell" true
    (contains ~needle:"cell policy=g5 clients=8 loss=0.2\n" (Exec.render_outcome o));
  check_bool "conservation over every cell" true
    (contains ~needle:"8 cells" (find_check o "conservation").Exec.detail);
  let ledger = Agg_util.Json.to_string (Agg_sim.Scenarios.json_of_outcome o) in
  check_bool "ledger labels each cell" true
    (contains ~needle:"{\"policy\": \"g5\", \"clients\": \"8\", \"loss\": \"0.2\", \"accesses\": 2000," ledger);
  (* the same point replayed alone gives the same cell *)
  let alone =
    run_ok
      { swept_fleet with
        Scenario.topology = Scenario.Fleet { clients = 8; client_capacity = 100; server_capacity = 200 };
        faults = { Plan.none with Plan.loss_rate = 0.2 };
        sweeps = [];
        invariants = [] }
  in
  check_bool "a cell equals its point run alone" true
    ((List.nth alone.Exec.cells 1).Exec.metrics = (List.nth o.Exec.cells 7).Exec.metrics)

(* An expectation holds only if it holds at every point of its policy,
   and its detail names the point that breaks it. *)
let test_exec_sweep_expectations () =
  let o = run_ok swept_fleet in
  let rates =
    List.filter_map
      (fun (c : Exec.cell) ->
        if c.Exec.policy = Scenario.Plain Cache.Lru then Some (Exec.metric c "hit_rate", c.Exec.point)
        else None)
      o.Exec.cells
    |> List.map (fun (r, p) -> (Option.get r, p))
  in
  let lo, lo_point = List.fold_left (fun a b -> if fst b < fst a then b else a) (List.hd rates) rates in
  let hi, hi_point = List.fold_left (fun a b -> if fst b > fst a then b else a) (List.hd rates) rates in
  check_bool "the sweep moves lru's hit rate" true (lo < hi);
  let mid = (lo +. hi) /. 2.0 in
  let check e =
    find_check (run_ok { swept_fleet with Scenario.expectations = [ e ] }) "hit_rate"
  in
  let low = check (Scenario.Hit_rate_min { policy = Scenario.Plain Cache.Lru; percent = mid }) in
  check_bool "min fails at some point" false low.Exec.pass;
  check_bool "names the lowest point" true
    (contains ~needle:(" at " ^ Scenario.point_name lo_point) low.Exec.detail);
  let high = check (Scenario.Hit_rate_max { policy = Scenario.Plain Cache.Lru; percent = mid }) in
  check_bool "max fails at some point" false high.Exec.pass;
  check_bool "names the highest point" true
    (contains ~needle:(" at " ^ Scenario.point_name hi_point) high.Exec.detail);
  check_bool "a bound every point meets passes" true
    (check (Scenario.Hit_rate_min { policy = Scenario.Plain Cache.Lru; percent = lo })).Exec.pass;
  (* an slo that holds without loss and breaks under it *)
  let slo =
    { Scenario.slo_metric = Scenario.Slo_degraded_rate; slo_policy = Scenario.Group 5;
      slo_bound = `Max 0.0; slo_window = 500; slo_after = 0 }
  in
  let path = { base with Scenario.topology = path 100 200 } in
  let clean = run_ok { path with Scenario.slos = [ slo ]; invariants = [] } in
  check_bool "no loss, no degraded window" true (find_check clean "slo").Exec.pass;
  let lossy =
    run_ok
      { path with
        Scenario.slos = [ slo ];
        invariants = [];
        sweeps = [ Scenario.Loss [ 0.0; 0.5 ] ] }
  in
  let c = find_check lossy "slo" in
  check_bool "the lossy point breaks the slo" false c.Exec.pass;
  check_bool "detail names the point and window" true
    (contains ~needle:"loss=0.5: window " c.Exec.detail)

(* Ordering expectations compare two values of one coordinate at every
   point of the others. *)
let test_exec_sweep_orderings () =
  let order ?(o = Scenario.Below) metric field lhs rhs =
    Scenario.Ordered { order = o; metric; field; lhs; rhs }
  in
  let run e = find_check (run_ok { swept_fleet with Scenario.expectations = [ e ] }) in
  let c = run (order ~o:Scenario.At_most "faults.degraded_fetches" "loss" "0" "0.2") "at_most" in
  check_bool "no loss never degrades more than loss" true c.Exec.pass;
  check_bool "one comparison per other point" true (contains ~needle:"4 points; closest" c.Exec.detail);
  let c = run (order "faults.timeouts" "loss" "0.2" "0") "below" in
  check_bool "loss has more timeouts" false c.Exec.pass;
  check_bool "names the failing point" true
    (contains ~needle:"fails at policy=lru clients=2 (loss=0.2: " c.Exec.detail);
  let c = run (order ~o:Scenario.At_most "accesses" "policy" "g5" "lru") "at_most" in
  check_bool "equal accesses satisfy at_most" true c.Exec.pass;
  check_bool "but not below" false (run (order "accesses" "policy" "g5" "lru") "below").Exec.pass

(* belady_bound and g1_equals_lru run at every point: Belady bounds each
   point at its own total client capacity. *)
let test_exec_sweep_per_point_invariants () =
  let t =
    { base with
      Scenario.workload = users;
      topology = Scenario.Fleet { clients = 1; client_capacity = 10; server_capacity = 200 };
      sweeps = [ Scenario.Clients [ 1; 8 ] ];
      invariants = [ Scenario.Belady_bound; Scenario.G1_equals_lru; Scenario.Jobs_invariance ] }
  in
  let o = run_ok t in
  check_bool "every invariant holds" true o.Exec.pass;
  check_bool "g1 compared at each point" true
    (contains ~needle:"at 2 points" (find_check o "g1_equals_lru").Exec.detail);
  (* the 8-client cell beats the 1-client optimum: a single bound would fail *)
  let trace =
    Agg_workload.Generator.generate ~seed:3 ~events:2000
      (Option.get (Agg_workload.Profile.by_name "users"))
  in
  let one = Agg_cache.Belady.simulate ~capacity:10 (Agg_trace.Trace.files trace) in
  let eight =
    List.find (fun (c : Exec.cell) -> Exec.cell_label c = "policy=lru clients=8") o.Exec.cells
  in
  check_bool "8 clients out-hit Belady at one client's capacity" true
    (Option.get (Exec.metric eight "client_hits") > float_of_int one.Agg_cache.Belady.hits)

let sweep_files () = Agg_sim.Scenarios.corpus_files sweeps_dir

let load file =
  match Scenario.load_file file with Ok s -> s | Error msg -> Alcotest.failf "%s" msg

(* The sweeps stated in scenarios/sweeps at a small cap: every check
   passes, the rendered cells are the same for any jobs value, and the
   headline orderings hold. *)
let test_sweep_files_jobs () =
  Alcotest.(check (list string))
    "the four sweeps" [ "cluster.scn"; "fleet.scn"; "latency.scn"; "resilience.scn" ]
    (List.map Filename.basename (sweep_files ()));
  List.iter
    (fun file ->
      let s = load file in
      Scenario.validate s;
      let render jobs = Exec.render_outcome (run_ok ~jobs ~events_cap:3000 s) in
      let one = render 1 in
      check_string (Filename.basename file ^ " jobs=1 vs jobs=4") one (render 4);
      check_bool (Filename.basename file ^ " passes") true (contains ~needle:"verdict pass" one))
    (sweep_files ());
  let o =
    run_ok ~jobs:2 ~events_cap:3000
      { (load (Filename.concat sweeps_dir "fleet.scn")) with
        Scenario.invariants = [ Scenario.Jobs_invariance ] }
  in
  check_bool "jobs_invariance holds on a sweep" true o.Exec.pass

let test_sweep_files_orderings () =
  let resilience = run_ok ~events_cap:4000 (load (Filename.concat sweeps_dir "resilience.scn")) in
  check_int "12 resilience cells" 12 (List.length resilience.Exec.cells);
  let below = find_check resilience "below metric=hit_rate field=policy lhs=lru rhs=g5" in
  check_bool "g5 beats lru at every loss rate" true below.Exec.pass;
  check_bool "at six loss rates" true (contains ~needle:"6 points" below.Exec.detail);
  let cluster = run_ok ~events_cap:4000 (load (Filename.concat sweeps_dir "cluster.scn")) in
  check_int "48 cluster cells" 48 (List.length cluster.Exec.cells);
  let at_most = find_check cluster "at_most metric=faults.degraded_fetches field=replicas" in
  check_bool "k = 3 degrades no more than k = 1" true at_most.Exec.pass;
  check_bool "at 24 points" true (contains ~needle:"24 points" at_most.Exec.detail);
  check_bool "every request served" true (find_check cluster "every_request_served").Exec.pass

(* The latency sweep is the Fig. 2 path run directly: each of its eight
   cells equals Cluster.run on the path with the cell's client policy,
   server policy and cost model, in every metric. *)
let test_latency_sweep_equals_path_runs () =
  let module Cluster = Agg_cluster.Cluster in
  let module Scheme = Agg_system.Scheme in
  let o = run_ok ~events_cap:3000 (load (Filename.concat sweeps_dir "latency.scn")) in
  let trace = Agg_workload.Generator.generate ~seed:7 ~events:3000 Agg_workload.Profile.server in
  let schemes = [ ("lru", Scheme.plain_lru); ("g5", Scheme.aggregating ());
                  ("g10", Scheme.aggregating ~group_size:10 ()) ] in
  let costs = [ ("lan", Agg_system.Cost_model.lan); ("wan", Agg_system.Cost_model.wan) ] in
  Alcotest.(check (list string))
    "the eight cells"
    [ "policy=lru server=lru cost=lan"; "policy=lru server=lru cost=wan";
      "policy=lru server=g10 cost=lan"; "policy=lru server=g10 cost=wan";
      "policy=g5 server=lru cost=lan"; "policy=g5 server=lru cost=wan";
      "policy=g5 server=g10 cost=lan"; "policy=g5 server=g10 cost=wan" ]
    (List.map Exec.cell_label o.Exec.cells);
  List.iter
    (fun (c : Exec.cell) ->
      let at field = List.assoc (List.assoc field c.Exec.point) in
      let r =
        Cluster.run
          { Cluster.path_config with
            Cluster.client_scheme = List.assoc (Scenario.policy_name c.Exec.policy) schemes;
            node_scheme = at "server" schemes;
            cost = at "cost" costs }
          trace
      in
      let f = r.Cluster.faults and i = float_of_int in
      let module C = Agg_faults.Counters in
      let expected =
        [ i r.Cluster.accesses; i r.Cluster.client_hits; i r.Cluster.server_requests;
          i r.Cluster.server_hits; i r.Cluster.store_fetches; i r.Cluster.files_transferred;
          i r.Cluster.invalidations; i r.Cluster.routed_fetches; i r.Cluster.failovers;
          i r.Cluster.cross_shard_members; i r.Cluster.rebalances; i r.Cluster.moved_files;
          100.0 *. i r.Cluster.client_hits /. i r.Cluster.accesses; r.Cluster.mean_latency;
          r.Cluster.p95_latency; r.Cluster.p99_latency; i f.C.lost_messages; i f.C.outage_denials;
          i f.C.timeouts; i f.C.retries; i f.C.degraded_fetches; i f.C.slowed_fetches;
          i f.C.crashes ]
      in
      Alcotest.(check (list (pair string (float 0.0))))
        (Exec.cell_label c) (List.combine Scenario.metric_names expected) c.Exec.metrics)
    o.Exec.cells;
  check_bool "every check passes" true o.Exec.pass

(* --- corpus --------------------------------------------------------------- *)

let corpus () = Agg_sim.Scenarios.corpus_files corpus_dir

let test_corpus_present_and_valid () =
  let files = corpus () in
  check_bool "at least 8 scenarios shipped" true (List.length files >= 8);
  List.iter
    (fun file ->
      match Scenario.load_file file with
      | Error msg -> Alcotest.failf "corpus file broken: %s" msg
      | Ok s -> Scenario.validate s)
    files

let test_corpus_green_fast_sized () =
  let runner =
    Agg_sim.Experiment.Runner.create ~jobs:2 ~settings:Agg_sim.Experiment.quick_settings ()
  in
  let entries =
    Agg_sim.Scenarios.run_corpus ~events_cap:4000 ~runner
      (Agg_sim.Scenarios.corpus_files corpus_dir)
  in
  check_int "every corpus file executed" (List.length (corpus ())) (List.length entries);
  List.iter
    (fun (e : Agg_sim.Scenarios.entry) ->
      match e.Agg_sim.Scenarios.outcome with
      | Error msg -> Alcotest.failf "%s failed to run: %s" e.Agg_sim.Scenarios.file msg
      | Ok o ->
          check_bool (e.Agg_sim.Scenarios.file ^ " meets its verdict") true o.Exec.ok)
    entries;
  check_bool "all_ok" true (Agg_sim.Scenarios.all_ok entries);
  let json = Agg_util.Json.to_string (Agg_sim.Scenarios.json_of_entries entries) in
  check_bool "json records the verdict" true
    (contains ~needle:"\"all_ok\": true" json);
  let known_bad =
    List.find
      (fun (e : Agg_sim.Scenarios.entry) ->
        Filename.basename e.Agg_sim.Scenarios.file = "known-bad.scn")
      entries
  in
  match known_bad.Agg_sim.Scenarios.outcome with
  | Ok o ->
      check_bool "known-bad fails its checks" false o.Exec.pass;
      check_bool "known-bad is ok because failure is expected" true o.Exec.ok
  | Error msg -> Alcotest.failf "known-bad failed to run: %s" msg

let test_corpus_jobs_determinism () =
  List.iter
    (fun file ->
      match Scenario.load_file file with
      | Error msg -> Alcotest.failf "%s: %s" file msg
      | Ok s ->
          let render jobs = Exec.render_outcome (run_ok ~jobs ~events_cap:2000 s) in
          check_string (Filename.basename file ^ " jobs=1 vs jobs=4") (render 1) (render 4))
    (corpus ())

(* --- fuzz & shrink -------------------------------------------------------- *)

let pinned_minimal =
  String.concat "\n"
    [
      "#scenario v1";
      "name known-bad";
      "workload profile name=server events=100 seed=7";
      "topology fleet clients=1 client_capacity=150 server_capacity=300";
      "faults seed=11 loss=0 outage_period=0 outage_rate=0 outage_length=0 slow=0 slow_mult=1 crash=0";
      "policy lru";
      "expect hit_rate policy=lru min=99.5";
      "expect violation";
      "";
    ]

let pinned_minimal_slo =
  String.concat "\n"
    [
      "#scenario v1";
      "name known-bad-slo";
      "workload profile name=server events=100 seed=7";
      "topology path client_capacity=300 server_capacity=1000";
      "faults seed=11 loss=0 outage_period=0 outage_rate=0 outage_length=0 slow=0 slow_mult=1 crash=0";
      "policy g5";
      "slo hit_rate policy=g5 min=99 window=500";
      "expect violation";
      "";
    ]

let load_known_bad () =
  match Scenario.load_file (Filename.concat corpus_dir "known-bad.scn") with
  | Ok s -> s
  | Error msg -> Alcotest.failf "known-bad.scn: %s" msg

let test_shrinker_pinned () =
  let bad = load_known_bad () in
  check_bool "known-bad violates" true (Fuzz.violates bad);
  let shrunk = Fuzz.shrink bad in
  check_string "shrinks to the pinned minimal scenario" pinned_minimal
    (Scenario.to_string shrunk);
  check_bool "shrunk still violates" true (Fuzz.violates shrunk);
  check_bool "strictly smaller" true
    (String.length (Scenario.to_string shrunk) < String.length (Scenario.to_string bad));
  (* greedy shrinking is deterministic: a second pass finds nothing more *)
  check_string "idempotent" pinned_minimal (Scenario.to_string (Fuzz.shrink shrunk))

(* the slo-driven known-bad entry shrinks too: the fault plan zeroes out,
   the extra policy and the invariants drop, but the slo (and the policy it
   names) must survive — a cold 500-access window can never hold 99%. *)
let test_shrinker_pinned_slo () =
  let bad =
    match Scenario.load_file (Filename.concat corpus_dir "known-bad-slo.scn") with
    | Ok s -> s
    | Error msg -> Alcotest.failf "known-bad-slo.scn: %s" msg
  in
  check_bool "known-bad-slo violates" true (Fuzz.violates bad);
  let shrunk = Fuzz.shrink bad in
  check_string "shrinks to the pinned minimal scenario" pinned_minimal_slo
    (Scenario.to_string shrunk);
  check_int "slo survives the shrink" 1 (List.length shrunk.Scenario.slos);
  check_string "idempotent" pinned_minimal_slo (Scenario.to_string (Fuzz.shrink shrunk))

let test_fuzz_reports_known_bad () =
  let bad = load_known_bad () in
  let report = Fuzz.run ~seed:5 ~rounds:3 bad in
  check_int "base tested first" 1 report.Fuzz.tested;
  match report.Fuzz.failure with
  | None -> Alcotest.fail "fuzz missed the known-bad violation"
  | Some f ->
      check_string "shrunk form pinned" pinned_minimal (Scenario.to_string f.Fuzz.shrunk);
      let again = Fuzz.run ~seed:5 ~rounds:3 bad in
      check_bool "deterministic for a fixed seed" true
        (match again.Fuzz.failure with
        | Some g -> Scenario.to_string g.Fuzz.shrunk = Scenario.to_string f.Fuzz.shrunk
        | None -> false)

let test_shrink_keeps_healthy_scenario () =
  check_bool "healthy scenario untouched" true (Fuzz.shrink base = base)

let test_perturb_valid () =
  let rng = Agg_util.Prng.create ~seed:9 () in
  let s = ref base in
  for _ = 1 to 50 do
    s := Fuzz.perturb rng !s;
    Scenario.validate !s
  done;
  let swept = load (Filename.concat sweeps_dir "cluster.scn") in
  let s = ref swept in
  for _ = 1 to 50 do
    s := Fuzz.perturb rng !s;
    Scenario.validate !s;
    check_bool "perturb never adds or changes an axis" true
      (!s.Scenario.sweeps = swept.Scenario.sweeps)
  done

(* The shrinker drops axes, then halves them, before anything else, and
   never leaves an ordering expectation without its axis: a swept
   known-bad entry shrinks to the same minimal form as the plain one. *)
let test_shrinker_sweeps () =
  let bad = load_known_bad () in
  let swept =
    { bad with
      Scenario.sweeps = [ Scenario.Clients [ 4; 1; 2; 8 ]; Scenario.Loss [ 0.1; 0.0; 0.3 ] ];
      expectations =
        bad.Scenario.expectations
        @ [ Scenario.Ordered
              { order = Scenario.At_most; metric = "accesses"; field = "clients"; lhs = "1";
                rhs = "2" } ] }
  in
  Scenario.validate swept;
  check_bool "the swept entry violates" true (Fuzz.violates ~events_cap:1000 swept);
  let shrunk = Fuzz.shrink ~events_cap:1000 swept in
  check_string "shrinks to the pinned minimal scenario" pinned_minimal (Scenario.to_string shrunk)

(* The shrinker proposes only files whose axes act: halving the nodes of
   a ring whose replicas axis reaches 4 would leave a value above the
   node count, so the shrunk form keeps all four nodes. *)
let test_shrinker_keeps_axes_acting () =
  let ring =
    { base with
      Scenario.topology =
        Scenario.Cluster
          { nodes = 4; replicas = 1; placement = Agg_cluster.Cluster.Owner_node; ring_seed = 1;
            clients = 2; client_capacity = 50; node_capacity = 100; churn = [] };
      sweeps = [ Scenario.Replicas [ 1; 4 ] ];
      invariants = [];
      (* equal access counts are never strictly below each other *)
      expectations =
        [ Scenario.Ordered
            { order = Scenario.Below; metric = "accesses"; field = "replicas"; lhs = "1"; rhs = "4" } ] }
  in
  let shrunk = Fuzz.shrink ~events_cap:500 ring in
  check_bool "shrunk still violates" true (Fuzz.violates ~events_cap:500 shrunk);
  Scenario.validate shrunk;
  match shrunk.Scenario.topology with
  | Scenario.Cluster { nodes; _ } -> check_int "the nodes the replicas axis needs" 4 nodes
  | _ -> Alcotest.fail "topology changed kind"

(* --- profiles ------------------------------------------------------------- *)

let test_paper_profiles_unchanged () =
  check_int "exactly four paper profiles" 4 (List.length Agg_workload.Profile.all);
  Alcotest.(check (list string))
    "paper profile names pinned"
    [ "workstation"; "users"; "write"; "server" ]
    (List.map (fun p -> p.Agg_workload.Profile.name) Agg_workload.Profile.all)

let test_extra_profiles () =
  Alcotest.(check (list string))
    "extras"
    [ "scientific"; "streaming"; "sized-workstation"; "sized-server" ]
    (List.map (fun p -> p.Agg_workload.Profile.name) Agg_workload.Profile.extras);
  List.iter
    (fun name ->
      match Agg_workload.Profile.by_name name with
      | None -> Alcotest.failf "by_name misses %s" name
      | Some p ->
          let trace = Agg_workload.Generator.generate ~seed:5 ~events:2000 p in
          check_int (name ^ " exact event count") 2000 (Agg_trace.Trace.length trace);
          check_bool
            (name ^ " universe estimate positive")
            true
            (Agg_workload.Profile.distinct_file_estimate p > 0))
    [ "scientific"; "streaming"; "sized-workstation"; "sized-server" ]

let () =
  Alcotest.run "agg_scenario"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip crafted" `Quick test_roundtrip_crafted;
          Alcotest.test_case "comments skipped" `Quick test_roundtrip_comments_skipped;
          Alcotest.test_case "strict rejections" `Quick test_codec_rejections;
          Alcotest.test_case "missing sections" `Quick test_codec_missing_sections;
          Alcotest.test_case "load_file errors" `Quick test_load_file_errors;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "sweep rejections" `Quick test_sweep_rejections;
          Alcotest.test_case "sweep base value" `Quick test_sweep_base_value;
          Alcotest.test_case "byte mutations" `Quick test_byte_mutations;
          Alcotest.test_case "committed files print as read" `Quick test_committed_files_print_as_read;
        ] );
      ( "exec",
        [
          Alcotest.test_case "invariants pass" `Quick test_exec_invariants_pass;
          Alcotest.test_case "expectation failure" `Quick test_exec_expectation_failure;
          Alcotest.test_case "trace file errors" `Quick test_exec_trace_file_errors;
          Alcotest.test_case "unknown profile" `Quick test_exec_unknown_profile;
          Alcotest.test_case "slo pass and fail" `Quick test_exec_slo_pass_and_fail;
          Alcotest.test_case "slo after skips warmup" `Quick test_exec_slo_after_skips_warmup;
          Alcotest.test_case "sweep cells" `Quick test_exec_sweep_cells;
          Alcotest.test_case "sweep expectations" `Quick test_exec_sweep_expectations;
          Alcotest.test_case "sweep orderings" `Quick test_exec_sweep_orderings;
          Alcotest.test_case "sweep per-point invariants" `Quick test_exec_sweep_per_point_invariants;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "jobs=1 vs jobs=4" `Quick test_sweep_files_jobs;
          Alcotest.test_case "g5 beats lru under loss" `Quick test_sweep_files_orderings;
          Alcotest.test_case "latency cells are path runs" `Quick test_latency_sweep_equals_path_runs;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "present and valid" `Quick test_corpus_present_and_valid;
          Alcotest.test_case "green fast-sized" `Quick test_corpus_green_fast_sized;
          Alcotest.test_case "jobs determinism" `Quick test_corpus_jobs_determinism;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "shrinker pinned" `Quick test_shrinker_pinned;
          Alcotest.test_case "slo shrinker pinned" `Quick test_shrinker_pinned_slo;
          Alcotest.test_case "fuzz reports known-bad" `Quick test_fuzz_reports_known_bad;
          Alcotest.test_case "healthy untouched" `Quick test_shrink_keeps_healthy_scenario;
          Alcotest.test_case "perturb preserves validity" `Quick test_perturb_valid;
          Alcotest.test_case "sweep shrinker" `Quick test_shrinker_sweeps;
          Alcotest.test_case "shrunk axes still act" `Quick test_shrinker_keeps_axes_acting;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "paper profiles unchanged" `Quick test_paper_profiles_unchanged;
          Alcotest.test_case "extras calibrated" `Quick test_extra_profiles;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
