module Plan = Agg_faults.Plan
module Cache = Agg_cache.Cache
module Cluster = Agg_cluster.Cluster

type workload =
  | Profile of { profile : string; events : int; seed : int }
  | Trace_file of { file : string }
  | Import_file of { format : Agg_trace.Import.format; file : string }

type policy = Plain of Cache.kind | Group of int

type cost = Lan | Wan

type topology =
  | Path of { client_capacity : int; server_capacity : int; server : policy; cost : cost }
  | Fleet of { clients : int; client_capacity : int; server_capacity : int }
  | Cluster of {
      nodes : int;
      replicas : int;
      placement : Cluster.metadata_placement;
      ring_seed : int;
      clients : int;
      client_capacity : int;
      node_capacity : int;
      churn : (int * Cluster.churn_op) list;
    }

let policy_name = function
  | Plain kind -> Cache.kind_name kind
  | Group n -> Printf.sprintf "g%d" n

let policy_of_string s =
  match Cache.kind_of_string s with
  | Some kind -> Some (Plain kind)
  | None ->
      let n = String.length s in
      if n >= 2 && s.[0] = 'g' then
        match int_of_string_opt (String.sub s 1 (n - 1)) with
        | Some g when g > 0 -> Some (Group g)
        | _ -> None
      else None

let cost_name = function Lan -> "lan" | Wan -> "wan"

let cost_of_string = function "lan" -> Some Lan | "wan" -> Some Wan | _ -> None

let cost_model = function Lan -> Agg_system.Cost_model.lan | Wan -> Agg_system.Cost_model.wan

(* Floats must survive the round trip exactly: prefer the short %g form,
   fall back to the always-exact %.17g when it loses precision. *)
let float_str f =
  let s = Printf.sprintf "%g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

type sweep =
  | Loss of float list
  | Outage_rate of float list
  | Replicas of int list
  | Placement of Cluster.metadata_placement list
  | Clients of int list
  | Server of policy list
  | Cost of cost list

let sweep_fields =
  [ "loss"; "outage_rate"; "replicas"; "placement"; "clients"; "server"; "cost" ]

let sweep_field = function
  | Loss _ -> "loss"
  | Outage_rate _ -> "outage_rate"
  | Replicas _ -> "replicas"
  | Placement _ -> "placement"
  | Clients _ -> "clients"
  | Server _ -> "server"
  | Cost _ -> "cost"

let sweep_labels = function
  | Loss rates | Outage_rate rates -> List.map float_str rates
  | Replicas counts | Clients counts -> List.map string_of_int counts
  | Placement places -> List.map Cluster.placement_name places
  | Server policies -> List.map policy_name policies
  | Cost costs -> List.map cost_name costs

(* the first name that occurs twice in [l] *)
let dup to_name l =
  let names = List.map to_name l in
  List.find_opt (fun n -> List.length (List.filter (( = ) n) names) > 1) names

(* What is wrong with an axis's values, if anything: the parser reports
   it against the sweep line, [validate] raises it. *)
let sweep_value_error sweep =
  let field = sweep_field sweep in
  let out_of_range =
    match sweep with
    | Loss rates | Outage_rate rates ->
        List.find_opt (fun r -> not (r >= 0.0 && r <= 1.0)) rates
        |> Option.map (fun r -> Printf.sprintf "value %s is outside [0, 1]" (float_str r))
    | Replicas counts | Clients counts ->
        List.find_opt (fun n -> n <= 0) counts
        |> Option.map (Printf.sprintf "value %d must be positive")
    | Server policies ->
        List.find_map (function Group g when g <= 0 -> Some g | _ -> None) policies
        |> Option.map (Printf.sprintf "group size %d must be positive")
    | Placement _ | Cost _ -> None
  in
  match (out_of_range, dup Fun.id (sweep_labels sweep)) with
  | Some m, _ -> Some (Printf.sprintf "sweep %s %s" field m)
  | None, Some v -> Some (Printf.sprintf "sweep %s repeats value %s" field v)
  | None, None ->
      if sweep_labels sweep = [] then Some (Printf.sprintf "sweep %s has no values" field) else None

type invariant =
  | Conservation
  | Belady_bound
  | G1_equals_lru
  | Jobs_invariance
  | Every_request_served

let invariant_name = function
  | Conservation -> "conservation"
  | Belady_bound -> "belady_bound"
  | G1_equals_lru -> "g1_equals_lru"
  | Jobs_invariance -> "jobs_invariance"
  | Every_request_served -> "every_request_served"

let all_invariants =
  [ Conservation; Belady_bound; G1_equals_lru; Jobs_invariance; Every_request_served ]

let invariant_of_string s =
  List.find_opt (fun i -> invariant_name i = s) all_invariants

type order = Below | At_most

let order_name = function Below -> "below" | At_most -> "at_most"

type expectation =
  | Hit_rate_min of { policy : policy; percent : float }
  | Hit_rate_max of { policy : policy; percent : float }
  | Ordered of { order : order; metric : string; field : string; lhs : string; rhs : string }

let metric_names =
  [
    "accesses"; "client_hits"; "server_requests"; "server_hits"; "store_fetches";
    "files_transferred"; "invalidations"; "routed_fetches"; "failovers"; "cross_shard_members";
    "rebalances"; "moved_files"; "hit_rate"; "mean_latency"; "p95_latency"; "p99_latency";
    "faults.lost_messages"; "faults.outage_denials"; "faults.timeouts"; "faults.retries";
    "faults.degraded_fetches"; "faults.slowed_fetches"; "faults.crashes";
  ]

type slo_metric = Slo_hit_rate | Slo_p99_latency | Slo_degraded_rate

let slo_metric_name = function
  | Slo_hit_rate -> "hit_rate"
  | Slo_p99_latency -> "p99_latency"
  | Slo_degraded_rate -> "degraded_rate"

let all_slo_metrics = [ Slo_hit_rate; Slo_p99_latency; Slo_degraded_rate ]

let slo_metric_of_string s =
  List.find_opt (fun m -> slo_metric_name m = s) all_slo_metrics

type slo = {
  slo_metric : slo_metric;
  slo_policy : policy;
  slo_bound : [ `Min of float | `Max of float ];
  slo_window : int;
  slo_after : int;
}

type t = {
  name : string;
  workload : workload;
  topology : topology;
  faults : Plan.config;
  policies : policy list;
  sweeps : sweep list;
  invariants : invariant list;
  expectations : expectation list;
  slos : slo list;
  expect_violation : bool;
}

(* --- sweep points ----------------------------------------------------------- *)

type point = (string * string) list

let point_name point = String.concat " " (List.map (fun (field, v) -> field ^ "=" ^ v) point)

(* Each value of an axis, labelled, with the change it makes to a
   scenario. A field the topology lacks is left alone; [validate]
   rejects such a sweep. *)
let settings sweep =
  let faults f t = { t with faults = f t.faults } in
  let topology f t = { t with topology = f t.topology } in
  List.combine (sweep_labels sweep)
    (match sweep with
    | Loss rates -> List.map (fun r -> faults (fun f -> { f with Plan.loss_rate = r })) rates
    | Outage_rate rates ->
        List.map (fun r -> faults (fun f -> { f with Plan.outage_rate = r })) rates
    | Replicas counts ->
        List.map
          (fun n -> topology (function Cluster c -> Cluster { c with replicas = n } | o -> o))
          counts
    | Placement places ->
        List.map
          (fun placement -> topology (function Cluster c -> Cluster { c with placement } | o -> o))
          places
    | Clients counts ->
        List.map
          (fun clients ->
            topology (function
              | Fleet f -> Fleet { f with clients }
              | Cluster c -> Cluster { c with clients }
              | o -> o))
          counts
    | Server policies ->
        List.map
          (fun server -> topology (function Path p -> Path { p with server } | o -> o))
          policies
    | Cost costs ->
        List.map (fun cost -> topology (function Path p -> Path { p with cost } | o -> o)) costs)

(* A fault rate that cannot act, if any: outages with no windows to fall
   in, or slow links no slower than the rest. The parser reports it
   against the faults line, [validate] raises it. *)
let faults_error (f : Plan.config) =
  if f.outage_rate > 0.0 && (f.outage_period = 0 || f.outage_length = 0) then
    Some
      (Printf.sprintf "faults outage_rate=%s needs outage_period and outage_length above 0"
         (float_str f.outage_rate))
  else if f.slow_rate > 0.0 && f.slow_multiplier = 1.0 then
    Some (Printf.sprintf "faults slow=%s needs slow_mult above 1" (float_str f.slow_rate))
  else None

(* What is wrong with an axis in the scenario it sweeps, if anything: a
   value error, a field the topology lacks, a value that cannot act (more
   replicas than nodes, an outage rate with no outage windows), or a base
   line that is not the axis's first value. The parser reports it against
   the sweep line, [validate] raises it. *)
let sweep_error t sweep =
  let field = sweep_field sweep in
  let needs what = Some (Printf.sprintf "sweep %s needs %s" field what) in
  let inert =
    match (sweep, t.topology) with
    | (Replicas _ | Placement _), (Path _ | Fleet _) -> needs "a cluster topology"
    | Clients _, Path _ -> needs "a fleet or cluster topology"
    | (Server _ | Cost _), (Fleet _ | Cluster _) -> needs "a path topology"
    | Replicas counts, Cluster { nodes; _ } ->
        List.find_opt (fun n -> n > nodes) counts
        |> Option.map (fun n -> Printf.sprintf "sweep replicas value %d exceeds nodes=%d" n nodes)
    | Outage_rate _, _ when t.faults.Plan.outage_period = 0 || t.faults.Plan.outage_length = 0 ->
        needs "outage_period and outage_length above 0 on the faults line"
    | _ -> None
  in
  match (sweep_value_error sweep, inert) with
  | (Some _ as e), _ | None, (Some _ as e) -> e
  | None, None ->
      let first, set = List.hd (settings sweep) in
      if set t = t then None
      else
        Some (Printf.sprintf "swept %s differs on its base line from its first value %s" field first)

let points t =
  List.fold_left
    (fun acc sweep ->
      List.concat_map
        (fun (point, base) ->
          List.map
            (fun (label, set) -> (point @ [ (sweep_field sweep, label) ], set base))
            (settings sweep))
        acc)
    [ ([], { t with sweeps = [] }) ]
    t.sweeps

(* Why an ordering expectation does not fit the scenario's axes, if it
   does not: the parser reports it against the expect line, [validate]
   raises it. *)
let order_error t ~field ~lhs ~rhs =
  let axis =
    if field = "policy" then Some (List.map policy_name t.policies)
    else
      List.find_map
        (fun s -> if sweep_field s = field then Some (sweep_labels s) else None)
        t.sweeps
  in
  match axis with
  | None -> Some (Printf.sprintf "field %s is not swept" field)
  | Some labels ->
      List.find_opt (fun v -> not (List.mem v labels)) [ lhs; rhs ]
      |> Option.map (fun v -> Printf.sprintf "%s=%s is not on the %s axis" field v field)

(* --- canonical printing --------------------------------------------------- *)

let header = "#scenario v1"

let format_name = function Agg_trace.Import.Paths -> "paths" | Agg_trace.Import.Strace -> "strace"

let workload_line = function
  | Profile { profile; events; seed } ->
      Printf.sprintf "workload profile name=%s events=%d seed=%d" profile events seed
  | Trace_file { file } -> Printf.sprintf "workload trace file=%s" file
  | Import_file { format; file } ->
      Printf.sprintf "workload import format=%s file=%s" (format_name format) file

(* A path's server and cost fields are printed only off their defaults
   (plain LRU, LAN), so a file without them prints as it reads. *)
let topology_lines = function
  | Path { client_capacity; server_capacity; server; cost } ->
      [ Printf.sprintf "topology path client_capacity=%d server_capacity=%d%s%s" client_capacity
          server_capacity
          (if server = Plain Cache.Lru then "" else " server=" ^ policy_name server)
          (if cost = Lan then "" else " cost=" ^ cost_name cost) ]
  | Fleet { clients; client_capacity; server_capacity } ->
      [ Printf.sprintf "topology fleet clients=%d client_capacity=%d server_capacity=%d" clients
          client_capacity server_capacity ]
  | Cluster { nodes; replicas; placement; ring_seed; clients; client_capacity; node_capacity; churn }
    ->
      Printf.sprintf
        "topology cluster nodes=%d replicas=%d placement=%s ring_seed=%d clients=%d \
         client_capacity=%d node_capacity=%d"
        nodes replicas
        (Cluster.placement_name placement)
        ring_seed clients client_capacity node_capacity
      :: List.map
           (fun (time, op) ->
             match op with
             | Cluster.Join node -> Printf.sprintf "churn time=%d op=join node=%d" time node
             | Cluster.Leave node -> Printf.sprintf "churn time=%d op=leave node=%d" time node)
           churn

let faults_line (c : Plan.config) =
  Printf.sprintf
    "faults seed=%d loss=%s outage_period=%d outage_rate=%s outage_length=%d slow=%s slow_mult=%s \
     crash=%s"
    c.Plan.seed (float_str c.Plan.loss_rate) c.Plan.outage_period (float_str c.Plan.outage_rate)
    c.Plan.outage_length (float_str c.Plan.slow_rate) (float_str c.Plan.slow_multiplier)
    (float_str c.Plan.crash_rate)

let expectation_name = function
  | Hit_rate_min { policy; percent } ->
      Printf.sprintf "hit_rate policy=%s min=%s" (policy_name policy) (float_str percent)
  | Hit_rate_max { policy; percent } ->
      Printf.sprintf "hit_rate policy=%s max=%s" (policy_name policy) (float_str percent)
  | Ordered { order; metric; field; lhs; rhs } ->
      Printf.sprintf "%s metric=%s field=%s lhs=%s rhs=%s" (order_name order) metric field lhs rhs

let expectation_line e = "expect " ^ expectation_name e

let slo_name s =
  let bound = match s.slo_bound with `Min v -> "min=" ^ float_str v | `Max v -> "max=" ^ float_str v in
  Printf.sprintf "%s policy=%s %s window=%d%s" (slo_metric_name s.slo_metric)
    (policy_name s.slo_policy) bound s.slo_window
    (if s.slo_after > 0 then Printf.sprintf " after=%d" s.slo_after else "")

let slo_line s = "slo " ^ slo_name s

let to_string t =
  let lines =
    [ header; Printf.sprintf "name %s" t.name; workload_line t.workload ]
    @ topology_lines t.topology
    @ [ faults_line t.faults ]
    @ List.map (fun p -> Printf.sprintf "policy %s" (policy_name p)) t.policies
    @ List.map
        (fun s -> Printf.sprintf "sweep %s=%s" (sweep_field s) (String.concat "," (sweep_labels s)))
        t.sweeps
    @ List.map (fun i -> Printf.sprintf "invariant %s" (invariant_name i)) t.invariants
    @ List.map expectation_line t.expectations
    @ List.map slo_line t.slos
    @ (if t.expect_violation then [ "expect violation" ] else [])
  in
  String.concat "\n" lines ^ "\n"

(* --- strict parsing -------------------------------------------------------- *)

let ( let* ) = Result.bind

let errf line fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" line m)) fmt

(* Every token after a line's keyword must be key=value with a key from
   [keys]: unknown and duplicate keys are errors. Lines with optional
   fields (expect hit_rate, slo) check presence themselves. *)
let parse_optional_kvs ~line keys tokens =
  List.fold_left
    (fun acc token ->
      let* acc = acc in
      match String.index_opt token '=' with
      | None -> errf line "malformed field %S (expected key=value)" token
      | Some i ->
          let key = String.sub token 0 i in
          let value = String.sub token (i + 1) (String.length token - i - 1) in
          if not (List.mem key keys) then errf line "unknown field %S" key
          else if List.mem_assoc key acc then errf line "duplicate field %S" key
          else Ok ((key, value) :: acc))
    (Ok []) tokens

(* ... and here every key of [keys] is required. *)
let parse_kvs ~line keys tokens =
  let* kvs = parse_optional_kvs ~line keys tokens in
  match List.find_opt (fun k -> not (List.mem_assoc k kvs)) keys with
  | Some missing -> errf line "missing field %S" missing
  | None -> Ok kvs

let int_kv ~line kvs key =
  let v = List.assoc key kvs in
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> errf line "field %S is not an integer: %S" key v

let float_kv ~line kvs key =
  let v = List.assoc key kvs in
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> errf line "field %S is not a number: %S" key v

type partial = {
  mutable p_name : string option;
  mutable p_workload : workload option;
  mutable p_topology : topology option;
  mutable p_churn : (int * Cluster.churn_op) list;  (* reversed *)
  mutable p_faults : Plan.config option;
  mutable p_policies : policy list;  (* reversed *)
  mutable p_invariants : invariant list;  (* reversed *)
  mutable p_sweeps : (int * sweep) list;  (* reversed, with their lines *)
  mutable p_expectations : (int * expectation) list;  (* reversed, with their lines *)
  mutable p_slos : slo list;  (* reversed *)
  mutable p_expect_violation : bool;
}

let parse_policy ~line spec =
  match policy_of_string spec with
  | Some p -> Ok p
  | None -> errf line "unknown policy %S (a cache kind or g<N>)" spec

let required ~line kvs key parse =
  if List.mem_assoc key kvs then parse ~line kvs key else errf line "missing field %S" key

let optional ~line kvs key parse default =
  if List.mem_assoc key kvs then parse ~line kvs key else Ok default

let policy_kv ~line kvs key = parse_policy ~line (List.assoc key kvs)

let cost_kv ~line kvs key =
  let v = List.assoc key kvs in
  match cost_of_string v with
  | Some c -> Ok c
  | None -> errf line "unknown cost %S (expected lan or wan)" v

(* A line's bound: exactly one of min= and max=; [what] names the line. *)
let bound_kv ~line ~what kvs =
  match (List.mem_assoc "min" kvs, List.mem_assoc "max" kvs) with
  | true, false -> Result.map (fun f -> `Min f) (float_kv ~line kvs "min")
  | false, true -> Result.map (fun f -> `Max f) (float_kv ~line kvs "max")
  | true, true -> errf line "%s takes min or max, not both" what
  | false, false -> errf line "%s needs min= or max=" what

(* The values of a sweep field, typed; [what] names them in errors. *)
let parse_values ~line ~what field values =
  let typed of_string kind v =
    match of_string v with Some x -> Ok x | None -> errf line "%s value %S is not %s" what v kind
  in
  let each parse wrap =
    Result.map wrap
      (List.fold_right
         (fun v acc ->
           let* acc = acc in
           let* x = parse v in
           Ok (x :: acc))
         values (Ok []))
  in
  let number = typed float_of_string_opt "a number" and count = typed int_of_string_opt "an integer" in
  let place = typed Cluster.placement_of_string "a placement (owner, group or client)" in
  let policy = typed policy_of_string "a policy (a cache kind or g<N>)" in
  let cost = typed cost_of_string "a cost (lan or wan)" in
  if List.mem "" values then errf line "%s has an empty value" what
  else
    match field with
    | "loss" -> each number (fun l -> Loss l)
    | "outage_rate" -> each number (fun l -> Outage_rate l)
    | "replicas" -> each count (fun l -> Replicas l)
    | "placement" -> each place (fun l -> Placement l)
    | "clients" -> each count (fun l -> Clients l)
    | "server" -> each policy (fun l -> Server l)
    | "cost" -> each cost (fun l -> Cost l)
    | _ ->
        errf line "unknown sweep field %S (expected one of: %s)" field
          (String.concat ", " sweep_fields)

let parse_line p ~line tokens =
  let once what slot store =
    match slot with Some _ -> errf line "duplicate %s line" what | None -> Ok (store ())
  in
  match tokens with
  | [ "name"; name ] ->
      once "name" p.p_name (fun () -> p.p_name <- Some name)
  | "name" :: _ -> errf line "name takes exactly one value"
  | "workload" :: "profile" :: rest ->
      let* kvs = parse_kvs ~line [ "name"; "events"; "seed" ] rest in
      let profile = List.assoc "name" kvs in
      let* events = int_kv ~line kvs "events" in
      let* seed = int_kv ~line kvs "seed" in
      once "workload" p.p_workload (fun () ->
          p.p_workload <- Some (Profile { profile; events; seed }))
  | "workload" :: "trace" :: rest ->
      let* kvs = parse_kvs ~line [ "file" ] rest in
      once "workload" p.p_workload (fun () ->
          p.p_workload <- Some (Trace_file { file = List.assoc "file" kvs }))
  | "workload" :: "import" :: rest ->
      let* kvs = parse_kvs ~line [ "format"; "file" ] rest in
      let fmt = List.assoc "format" kvs in
      let* format =
        match Agg_trace.Import.format_of_string fmt with
        | Some f -> Ok f
        | None -> errf line "unknown import format %S (expected paths or strace)" fmt
      in
      once "workload" p.p_workload (fun () ->
          p.p_workload <- Some (Import_file { format; file = List.assoc "file" kvs }))
  | "workload" :: kind :: _ -> errf line "unknown workload kind %S" kind
  | [ "workload" ] -> errf line "workload needs a kind (profile, trace or import)"
  | "topology" :: "path" :: rest ->
      let* kvs =
        parse_optional_kvs ~line [ "client_capacity"; "server_capacity"; "server"; "cost" ] rest
      in
      let* client_capacity = required ~line kvs "client_capacity" int_kv in
      let* server_capacity = required ~line kvs "server_capacity" int_kv in
      let* server = optional ~line kvs "server" policy_kv (Plain Cache.Lru) in
      let* cost = optional ~line kvs "cost" cost_kv Lan in
      once "topology" p.p_topology (fun () ->
          p.p_topology <- Some (Path { client_capacity; server_capacity; server; cost }))
  | "topology" :: "fleet" :: rest ->
      let* kvs = parse_kvs ~line [ "clients"; "client_capacity"; "server_capacity" ] rest in
      let* clients = int_kv ~line kvs "clients" in
      let* client_capacity = int_kv ~line kvs "client_capacity" in
      let* server_capacity = int_kv ~line kvs "server_capacity" in
      once "topology" p.p_topology (fun () ->
          p.p_topology <- Some (Fleet { clients; client_capacity; server_capacity }))
  | "topology" :: "cluster" :: rest ->
      let* kvs =
        parse_kvs ~line
          [ "nodes"; "replicas"; "placement"; "ring_seed"; "clients"; "client_capacity";
            "node_capacity" ]
          rest
      in
      let* nodes = int_kv ~line kvs "nodes" in
      let* replicas = int_kv ~line kvs "replicas" in
      let* ring_seed = int_kv ~line kvs "ring_seed" in
      let* clients = int_kv ~line kvs "clients" in
      let* client_capacity = int_kv ~line kvs "client_capacity" in
      let* node_capacity = int_kv ~line kvs "node_capacity" in
      let pl = List.assoc "placement" kvs in
      let* placement =
        match Cluster.placement_of_string pl with
        | Some p -> Ok p
        | None -> errf line "unknown placement %S (expected owner, group or client)" pl
      in
      let* () =
        if replicas > nodes then errf line "replicas=%d exceeds nodes=%d" replicas nodes else Ok ()
      in
      once "topology" p.p_topology (fun () ->
          p.p_topology <-
            Some
              (Cluster
                 { nodes; replicas; placement; ring_seed; clients; client_capacity; node_capacity;
                   churn = [] }))
  | "topology" :: kind :: _ -> errf line "unknown topology %S" kind
  | [ "topology" ] -> errf line "topology needs a kind (path, fleet or cluster)"
  | "churn" :: rest -> (
      match p.p_topology with
      | Some (Cluster _) ->
          let* kvs = parse_kvs ~line [ "time"; "op"; "node" ] rest in
          let* time = int_kv ~line kvs "time" in
          let* node = int_kv ~line kvs "node" in
          let* op =
            match List.assoc "op" kvs with
            | "join" -> Ok (Cluster.Join node)
            | "leave" -> Ok (Cluster.Leave node)
            | other -> errf line "unknown churn op %S (expected join or leave)" other
          in
          Ok (p.p_churn <- (time, op) :: p.p_churn)
      | Some _ | None -> errf line "churn is only valid after a cluster topology")
  | "faults" :: rest ->
      let* kvs =
        parse_kvs ~line
          [ "seed"; "loss"; "outage_period"; "outage_rate"; "outage_length"; "slow"; "slow_mult";
            "crash" ]
          rest
      in
      let* seed = int_kv ~line kvs "seed" in
      let* loss_rate = float_kv ~line kvs "loss" in
      let* outage_period = int_kv ~line kvs "outage_period" in
      let* outage_rate = float_kv ~line kvs "outage_rate" in
      let* outage_length = int_kv ~line kvs "outage_length" in
      let* slow_rate = float_kv ~line kvs "slow" in
      let* slow_multiplier = float_kv ~line kvs "slow_mult" in
      let* crash_rate = float_kv ~line kvs "crash" in
      let faults =
        { Plan.seed; loss_rate; outage_period; outage_rate; outage_length; slow_rate;
          slow_multiplier; crash_rate }
      in
      (match faults_error faults with
      | Some m -> errf line "%s" m
      | None -> once "faults" p.p_faults (fun () -> p.p_faults <- Some faults))
  | [ "policy"; spec ] ->
      let* policy = parse_policy ~line spec in
      Ok (p.p_policies <- policy :: p.p_policies)
  | "policy" :: _ -> errf line "policy takes exactly one value"
  | [ "invariant"; spec ] -> (
      match invariant_of_string spec with
      | Some i -> Ok (p.p_invariants <- i :: p.p_invariants)
      | None ->
          errf line "unknown invariant %S (expected one of: %s)" spec
            (String.concat ", " (List.map invariant_name all_invariants)))
  | "invariant" :: _ -> errf line "invariant takes exactly one value"
  | [ "sweep"; spec ] -> (
      match String.index_opt spec '=' with
      | None -> errf line "malformed sweep %S (expected field=v1,v2,...)" spec
      | Some i ->
          let field = String.sub spec 0 i in
          let list = String.sub spec (i + 1) (String.length spec - i - 1) in
          let values = String.split_on_char ',' list in
          let* sweep = parse_values ~line ~what:("sweep " ^ field) field values in
          if List.exists (fun (_, s) -> sweep_field s = field) p.p_sweeps then
            errf line "duplicate sweep field %S" field
          else (
            match sweep_value_error sweep with
            | Some m -> errf line "%s" m
            | None -> Ok (p.p_sweeps <- (line, sweep) :: p.p_sweeps)))
  | "sweep" :: _ -> errf line "sweep takes exactly one field=v1,v2,... list"
  | [ "expect"; "violation" ] ->
      if p.p_expect_violation then errf line "duplicate expect violation line"
      else Ok (p.p_expect_violation <- true)
  | "expect" :: "hit_rate" :: rest ->
      let* kvs = parse_optional_kvs ~line [ "policy"; "min"; "max" ] rest in
      let* policy = required ~line kvs "policy" policy_kv in
      let* bound = bound_kv ~line ~what:"expect hit_rate" kvs in
      let e =
        match bound with
        | `Min percent -> Hit_rate_min { policy; percent }
        | `Max percent -> Hit_rate_max { policy; percent }
      in
      Ok (p.p_expectations <- (line, e) :: p.p_expectations)
  | "expect" :: (("below" | "at_most") as kind) :: rest ->
      let* kvs = parse_kvs ~line [ "metric"; "field"; "lhs"; "rhs" ] rest in
      let metric = List.assoc "metric" kvs and field = List.assoc "field" kvs in
      let label side =
        if field = "policy" then Result.map policy_name (policy_kv ~line kvs side)
        else if List.mem field sweep_fields then
          parse_values ~line ~what:side field [ List.assoc side kvs ]
          |> Result.map (fun s -> List.hd (sweep_labels s))
        else
          errf line "unknown field %S (expected policy or one of: %s)" field
            (String.concat ", " sweep_fields)
      in
      let* lhs = label "lhs" in
      let* rhs = label "rhs" in
      if not (List.mem metric metric_names) then errf line "unknown metric %S" metric
      else
        let order = if kind = "below" then Below else At_most in
        Ok (p.p_expectations <- (line, Ordered { order; metric; field; lhs; rhs }) :: p.p_expectations)
  | "expect" :: kind :: _ -> errf line "unknown expectation %S" kind
  | [ "expect" ] -> errf line "expect needs a kind (hit_rate, below, at_most or violation)"
  | "slo" :: metric :: rest ->
      let* slo_metric =
        match slo_metric_of_string metric with
        | Some m -> Ok m
        | None ->
            errf line "unknown slo metric %S (expected one of: %s)" metric
              (String.concat ", " (List.map slo_metric_name all_slo_metrics))
      in
      let* kvs = parse_optional_kvs ~line [ "policy"; "min"; "max"; "window"; "after" ] rest in
      let* slo_policy = required ~line kvs "policy" policy_kv in
      let* slo_bound = bound_kv ~line ~what:"slo" kvs in
      let* slo_window = required ~line kvs "window" int_kv in
      let* slo_after = optional ~line kvs "after" int_kv 0 in
      Ok
        (p.p_slos <-
           { slo_metric; slo_policy; slo_bound; slo_window; slo_after } :: p.p_slos)
  | [ "slo" ] -> errf line "slo needs a metric (hit_rate, p99_latency or degraded_rate)"
  | keyword :: _ -> errf line "unknown line keyword %S" keyword
  | [] -> Ok () (* unreachable: blank lines are filtered by the caller *)

let of_string text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | first :: rest when String.trim first = header ->
      let p =
        {
          p_name = None;
          p_workload = None;
          p_topology = None;
          p_churn = [];
          p_faults = None;
          p_policies = [];
          p_sweeps = [];
          p_invariants = [];
          p_expectations = [];
          p_slos = [];
          p_expect_violation = false;
        }
      in
      let* () =
        List.fold_left
          (fun acc (line, raw) ->
            let* () = acc in
            let raw = String.trim raw in
            if raw = "" || raw.[0] = '#' then Ok ()
            else
              let tokens = List.filter (fun t -> t <> "") (String.split_on_char ' ' raw) in
              parse_line p ~line tokens)
          (Ok ())
          (List.mapi (fun i raw -> (i + 2, raw)) rest)
      in
      let require what = function
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "line %d: missing %s line" (List.length lines) what)
      in
      let* name = require "name" p.p_name in
      let* workload = require "workload" p.p_workload in
      let* topology = require "topology" p.p_topology in
      let topology =
        match topology with
        | Cluster c -> Cluster { c with churn = List.rev p.p_churn }
        | t -> t
      in
      if p.p_policies = [] then
        Error (Printf.sprintf "line %d: missing policy line" (List.length lines))
      else
        let t =
          {
            name;
            workload;
            topology;
            faults = Option.value ~default:Plan.none p.p_faults;
            policies = List.rev p.p_policies;
            sweeps = List.rev_map snd p.p_sweeps;
            invariants = List.rev p.p_invariants;
            expectations = List.rev_map snd p.p_expectations;
            slos = List.rev p.p_slos;
            expect_violation = p.p_expect_violation;
          }
        in
        (* lines that refer to others are checked once every line is read *)
        let errors =
          List.filter_map
            (fun (line, s) -> Option.map (fun m -> (line, m)) (sweep_error t s))
            p.p_sweeps
          @ List.filter_map
              (function
                | line, Ordered { field; lhs; rhs; _ } ->
                    Option.map (fun m -> (line, "expect " ^ m)) (order_error t ~field ~lhs ~rhs)
                | _, (Hit_rate_min _ | Hit_rate_max _) -> None)
              p.p_expectations
        in
        (match List.sort compare errors with
        | (line, m) :: _ -> Error (Printf.sprintf "line %d: %s" line m)
        | [] -> Ok t)
  | first :: _ -> Error (Printf.sprintf "line 1: expected %S header, got %S" header (String.trim first))
  | [] -> Error "line 1: empty input"

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      match of_string text with
      | Ok t -> Ok t
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

(* --- validation ------------------------------------------------------------ *)

let invalid fmt = Printf.ksprintf invalid_arg fmt

let positive what v = if v <= 0 then invalid "Scenario.validate: %s must be positive (got %d)" what v

let validate t =
  if t.name = "" then invalid "Scenario.validate: empty name";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ()
      | c -> invalid "Scenario.validate: name contains %C" c)
    t.name;
  (match t.workload with
  | Profile { events; _ } -> positive "events" events
  | Trace_file _ | Import_file _ -> ());
  (match t.topology with
  | Path { client_capacity; server_capacity; server; cost = _ } ->
      positive "client_capacity" client_capacity;
      positive "server_capacity" server_capacity;
      (match server with Group g -> positive "server group size" g | Plain _ -> ())
  | Fleet { clients; client_capacity; server_capacity } ->
      positive "clients" clients;
      positive "client_capacity" client_capacity;
      positive "server_capacity" server_capacity
  | Cluster { nodes; replicas; clients; client_capacity; node_capacity; churn; _ } ->
      positive "nodes" nodes;
      positive "replicas" replicas;
      if replicas > nodes then
        invalid "Scenario.validate: replicas=%d exceeds nodes=%d" replicas nodes;
      positive "clients" clients;
      positive "client_capacity" client_capacity;
      positive "node_capacity" node_capacity;
      List.iter
        (fun (time, _) ->
          if time < 0 then invalid "Scenario.validate: negative churn time %d" time)
        churn);
  Plan.validate t.faults;
  Option.iter (invalid "Scenario.validate: %s") (faults_error t.faults);
  if t.policies = [] then invalid "Scenario.validate: empty policy matrix";
  List.iter (fun (p : policy) -> match p with Group g -> positive "group size" g | Plain _ -> ())
    t.policies;
  List.iter
    (fun (what, d) -> Option.iter (invalid "Scenario.validate: duplicate %s %s" what) d)
    [
      ("policy", dup policy_name t.policies);
      ("invariant", dup invariant_name t.invariants);
      ("sweep field", dup sweep_field t.sweeps);
      ("slo", dup slo_name t.slos);
    ];
  List.iter (fun s -> Option.iter (invalid "Scenario.validate: %s") (sweep_error t s)) t.sweeps;
  List.iter
    (function
      | Hit_rate_min { policy; percent } | Hit_rate_max { policy; percent } ->
          if not (percent >= 0.0 && percent <= 100.0) then
            invalid "Scenario.validate: hit-rate expectation %s outside [0, 100]"
              (float_str percent);
          if not (List.exists (fun p -> policy_name p = policy_name policy) t.policies) then
            invalid "Scenario.validate: expectation on policy %s absent from the matrix"
              (policy_name policy)
      | Ordered { metric; field; lhs; rhs; _ } ->
          if not (List.mem metric metric_names) then
            invalid "Scenario.validate: unknown metric %s" metric;
          Option.iter (invalid "Scenario.validate: expectation %s") (order_error t ~field ~lhs ~rhs);
          if lhs = rhs then
            invalid "Scenario.validate: expectation compares %s=%s with itself" field lhs)
    t.expectations;
  (match t.slos with
  | [] -> ()
  | first :: rest ->
      (* one window size per scenario: every policy cell folds its run into
         a single series, and mixed windows would need one series each *)
      List.iter
        (fun s ->
          if s.slo_window <> first.slo_window then
            invalid "Scenario.validate: slo windows differ (%d and %d)" first.slo_window
              s.slo_window)
        rest);
  List.iter
    (fun s ->
      positive "slo window" s.slo_window;
      if s.slo_after < 0 then invalid "Scenario.validate: negative slo after %d" s.slo_after;
      (match (s.slo_metric, s.slo_bound) with
      | (Slo_hit_rate | Slo_degraded_rate), (`Min v | `Max v) ->
          if not (v >= 0.0 && v <= 100.0) then
            invalid "Scenario.validate: slo rate bound %s outside [0, 100]" (float_str v)
      | Slo_p99_latency, (`Min v | `Max v) ->
          if not (v >= 0.0) then
            invalid "Scenario.validate: negative slo latency bound %s" (float_str v));
      if not (List.exists (fun p -> policy_name p = policy_name s.slo_policy) t.policies) then
        invalid "Scenario.validate: slo on policy %s absent from the matrix"
          (policy_name s.slo_policy))
    t.slos
