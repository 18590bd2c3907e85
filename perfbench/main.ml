(* The steady benchmark of the aggregating-cache simulator.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A workload builds [inputs] independent inputs from the seed (the
   set-up, repeated and timed), checks the simulator's outputs on each
   against the reference models of lib/oracle and against accounting
   identities, then replays the inputs round-robin for S seconds, timing
   every replay. Timings pool all inputs: the cost of one generated trace
   varies by tens of percent with its seed, and a pool of twelve averages
   most of that out. With --trace 0 the run reports the end-to-end
   metrics. With --trace 1 it instead repeats, for S seconds, a traced
   pass over each input's request streams that times every call it makes
   into a layer, and reports the per-layer metrics. The last line of
   standard output is one JSON object with the keys correct, attempted,
   failed and metrics. *)

module Span = Agg_obs.Span
module Sink = Agg_obs.Sink
module Event = Agg_obs.Event
module Int_table = Agg_util.Int_table
module Profile = Agg_workload.Profile
module Generator = Agg_workload.Generator
module Cache = Agg_cache.Cache
module Policy = Agg_cache.Policy
module Tracker = Agg_successor.Tracker
module Config = Agg_core.Config
module Client_cache = Agg_core.Client_cache
module Server_cache = Agg_core.Server_cache
module Group_builder = Agg_core.Group_builder
module Metrics = Agg_core.Metrics
module Bundle = Agg_baselines.Bundle
module Cluster = Agg_cluster.Cluster
module Ring = Agg_cluster.Ring
module Plan = Agg_faults.Plan
module Counters = Agg_faults.Counters
module Scheme = Agg_system.Scheme
module Model_cache = Agg_oracle.Model_cache
module Model_system = Agg_oracle.Model_system

(* ---------- measurement helpers ---------- *)

let now = Span.now_ns
let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)

(* Linear interpolation between closest ranks. [samples] is non-empty. *)
let quantile q samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* Runs [f] repeatedly until [seconds] have passed (at least twice). *)
let repeat_for ~seconds f =
  let deadline = Int64.add (now ()) (Int64.of_float (seconds *. 1e9)) in
  let rec go n = if n < 2 || Int64.compare (now ()) deadline < 0 then (f (); go (n + 1)) in
  go 0

(* ---------- machine-speed calibration ---------- *)

(* The host's speed drifts by tens of percent over seconds to minutes
   (other tenants, frequency scaling), and every timing drifts with it.
   So right after each timed section the benchmark times a fixed
   calibration loop and scales the section by [reference_ns / measured]:
   timings are reported in nanoseconds at a reference speed, close to the
   unscaled figures on a quiet 2-vCPU x86-64 VM, where the loop takes
   about 1 ms. The loop is a frozen miniature of the simulator's hot path
   (a 1000-entry LRU over index arrays, the layout of
   [Agg_util.Dlist_arena], fed a skewed stream from a fixed LCG), so
   contention slows it much as it slows the simulator. It lives in this
   file, so no change to the simulator can alter it, and it allocates
   nothing, so the simulator's heap cannot bill garbage-collection work
   to it. *)
module Calibration = struct
  let reference_ns = 1.0e6
  let universe = 16_384
  let capacity = 1_000
  let prev = Array.make universe (-1)
  let next = Array.make universe (-1)
  let resident = Bytes.make universe '0'
  let head = ref (-1)
  let tail = ref (-1)
  let size = ref 0

  let unlink k =
    let p = prev.(k) and n = next.(k) in
    if p >= 0 then next.(p) <- n else head := n;
    if n >= 0 then prev.(n) <- p else tail := p

  let push k =
    prev.(k) <- -1;
    next.(k) <- !head;
    if !head >= 0 then prev.(!head) <- k else tail := k;
    head := k

  let access k =
    if Bytes.get resident k = '1' then unlink k
    else begin
      if !size >= capacity then begin
        let victim = !tail in
        unlink victim;
        Bytes.set resident victim '0';
        decr size
      end;
      Bytes.set resident k '1';
      incr size
    end;
    push k

  (* Three in four keys come from a hot set of 1024, the rest from the
     whole universe. *)
  let speed_factor () =
    let t0 = now () in
    let x = ref 777 in
    for _ = 1 to 75_000 do
      x := ((!x * 1_103_515_245) + 12_345) land 0x3fff_ffff;
      access ((!x lsr 4) land if !x land 3 = 0 then universe - 1 else 1_023)
    done;
    reference_ns /. ns_since t0
end

let speed_factor = Calibration.speed_factor

(* ---------- workloads ---------- *)

(* The paper's operating point: groups of five, eight recency-managed
   successors per file, members appended at the cold end of an LRU. *)
let g5 = Config.default

let g5_tracker () =
  Tracker.create ~capacity:g5.Config.successor_capacity ~policy:g5.Config.metadata_policy ()

(* Accesses compared against a reference model; the models are
   list-based and slow, so they check a prefix of every stream. *)
let check_events = 2_000

(* Independent inputs per run; input [k] of seed [s] is generated from
   seed [s * inputs + k]. *)
let inputs = 12

type input = {
  accesses : int;  (** simulated accesses one replay performs *)
  replay : unit -> string;  (** one replay of this input; a digest of its outputs *)
  check : unit -> string list;  (** every mismatch against references and identities *)
  streams : int array list;  (** the request streams the traced pass replays *)
  weight_of : (int -> Policy.weight) option;
  client_capacity : int;  (** capacity of the traced pass's aggregating client *)
  kinds : Cache.kind list;  (** demand caches the traced pass also drives *)
  plan : Plan.t;  (** fault plan the traced pass consults on every fetch *)
  generate_ns : float;  (** time spent generating this input *)
  generated : int;  (** events generated for this input *)
}

let generate_timed f =
  let t0 = now () in
  let x = f () in
  (x, ns_since t0)

let expect cond fmt = Printf.ksprintf (fun s -> if cond then [] else [ s ]) fmt
let prefix files = Array.sub files 0 (min check_events (Array.length files))

(* Replays [files] through two implementations in lockstep and reports
   the first access whose hit answer differs. *)
let lockstep ~what files a b =
  let first = ref (-1) in
  Array.iteri (fun i f -> if a f <> b f && !first < 0 then first := i) files;
  expect (!first < 0) "%s: diverges from its reference at access %d" what !first

let sorted l = List.sort compare l

let digest_client (m : Metrics.client) =
  Printf.sprintf "%d/%d/%d/%d/%d/%d" m.Metrics.accesses m.Metrics.hits m.Metrics.demand_fetches
    m.Metrics.prefetch.Metrics.issued m.Metrics.prefetch.Metrics.used
    m.Metrics.prefetch.Metrics.evicted_unused

let client_identities ~what (m : Metrics.client) =
  expect
    (m.Metrics.hits + m.Metrics.demand_fetches = m.Metrics.accesses)
    "%s: hits + demand fetches <> accesses" what
  @ expect
      (m.Metrics.prefetch.Metrics.used + m.Metrics.prefetch.Metrics.evicted_unused
      <= m.Metrics.prefetch.Metrics.issued)
      "%s: more prefetches used or evicted than issued" what

(* paper-g5: the paper's aggregating client (Fig. 3) and the two-level
   client + aggregating server path (Fig. 4) at g = 5 over the four
   calibrated DFSTrace stand-ins. *)
module Paper = struct
  let events = 6_000
  let client_capacity = 300
  let filter_capacity = 100
  let server_capacity = 300
  let scheme = Server_cache.Aggregating g5
  let client () = Client_cache.create ~config:g5 ~capacity:client_capacity ()

  let server () =
    Server_cache.create ~filter_kind:Cache.Lru ~filter_capacity ~server_capacity ~scheme ()

  let digest_server (m : Metrics.server) =
    Printf.sprintf "%d/%d/%d/%d/%d" m.Metrics.client_accesses m.Metrics.server_requests
      m.Metrics.server_hits m.Metrics.store_fetches m.Metrics.prefetch.Metrics.issued

  let check_profile (profile, files) =
    let what = profile.Profile.name in
    let head = prefix files in
    let c = client () and mc = Model_system.Client.create ~config:g5 ~capacity:client_capacity () in
    let s = server ()
    and ms =
      Model_system.Server.create ~filter_kind:Cache.Lru ~filter_capacity ~server_capacity ~scheme
        ()
    in
    let full = Client_cache.run_files (client ()) files in
    lockstep ~what:(what ^ " client") head (Client_cache.access c) (Model_system.Client.access mc)
    @ expect
        (Client_cache.metrics c = Model_system.Client.metrics mc)
        "%s client: metrics differ from the reference" what
    @ lockstep ~what:(what ^ " server") head (Server_cache.access s) (Model_system.Server.access ms)
    @ expect
        (Server_cache.metrics s = Model_system.Server.metrics ms)
        "%s server: metrics differ from the reference" what
    @ client_identities ~what full
    @ expect (full.Metrics.accesses = Array.length files) "%s: accesses lost" what

  let input ~seed =
    let profiles, generate_ns =
      generate_timed (fun () ->
          List.map (fun p -> (p, Generator.generate_files ~seed ~events p)) Profile.all)
    in
    let streams = List.map snd profiles in
    {
      accesses = 2 * events * List.length streams;
      replay =
        (fun () ->
          String.concat ";"
            (List.map
               (fun files ->
                 let c = Client_cache.run_files (client ()) files in
                 let s = Server_cache.run_files (server ()) files in
                 digest_client c ^ "|" ^ digest_server s)
               streams));
      check = (fun () -> List.concat_map check_profile profiles);
      streams;
      weight_of = None;
      client_capacity;
      kinds = [];
      plan = Plan.make { Plan.default with Plan.seed = seed };
      generate_ns;
      generated = events * List.length streams;
    }
end

(* The bundle policy served the way an aggregating client would serve
   it: on a miss the predicted retrieval group arrives as one bundle. *)
module type BUNDLE = sig
  include Policy.S

  val request_bundle : t -> weight_of:(int -> Policy.weight) -> int list -> int list
end

let serve_bundles (type a) (module B : BUNDLE with type t = a) (b : a) ~weight_of =
  let tracker = g5_tracker () in
  fun file ->
    Tracker.observe tracker file;
    if B.mem b file then begin
      B.promote b file;
      B.charge b file ~cost:(weight_of file).Policy.cost;
      true
    end
    else begin
      ignore
        (B.request_bundle b ~weight_of
           (Group_builder.build tracker ~group_size:g5.Config.group_size file));
      false
    end

(* A demand access against a reference model, as [Cache.access] makes
   it against a policy. *)
let model_access ~mem ~promote ~charge ~insert ~weight_of file =
  let w : Policy.weight = weight_of file in
  if mem file then begin
    promote file;
    charge file ~cost:w.Policy.cost;
    true
  end
  else begin
    ignore (insert ~pos:Policy.Hot ~weight:w file);
    false
  end

(* Memoised [Profile.weight_of] over the ids a stream touches: group
   members are always ids the stream has already shown. *)
let weight_table profile files =
  let n = 1 + Array.fold_left max 0 files in
  let table = Array.make n Policy.unit_weight in
  let seen = Bytes.make n '\000' in
  Array.iter
    (fun f ->
      if Bytes.get seen f = '\000' then begin
        Bytes.set seen f '\001';
        table.(f) <- Profile.weight_of profile f
      end)
    files;
  fun f -> table.(f)

(* policies: every replacement policy behind the cache facade, the
   bundle baseline per file and served as groups, and the weighted g5
   client, on the size/cost-skewed workstation profile. *)
module Policies = struct
  let events = 8_000
  let capacity = 1_000
  let profile = Profile.sized_workstation

  let digest_cache c =
    let s = Cache.stats c and w = Cache.weighted_stats c in
    Printf.sprintf "%d/%d/%d/%d/%d" s.Cache.hits s.Cache.evictions w.Cache.bytes_hit
      w.Cache.cost_fetched (Cache.used c)

  let facade ~weight_of kind = Cache.create ~weight_of kind ~capacity
  let bundle_facade ~weight_of = Cache.of_policy ~weight_of (module Bundle) (Bundle.create ~capacity)

  (* Every policy a replay drives per file through the facade. *)
  let caches ~weight_of = List.map (facade ~weight_of) Cache.all_kinds @ [ bundle_facade ~weight_of ]

  let cache_identities ~what c =
    let s = Cache.stats c in
    expect (s.Cache.hits + s.Cache.misses = s.Cache.accesses) "%s: hits + misses <> accesses" what
    @ expect (Cache.used c <= Cache.capacity c) "%s: resident size exceeds capacity" what

  let replay ~weight_of files () =
    let digests =
      List.map
        (fun c ->
          Array.iter (fun f -> ignore (Cache.access c f)) files;
          digest_cache c)
        (caches ~weight_of)
    in
    let b = Bundle.create ~capacity in
    let serve = serve_bundles (module Bundle) b ~weight_of in
    let bundle_hits = Array.fold_left (fun n f -> if serve f then n + 1 else n) 0 files in
    let g = Client_cache.create ~config:g5 ~weight_of ~capacity () in
    let gm = Client_cache.run_files g files in
    String.concat ";" digests
    ^ Printf.sprintf ";%d/%d;%s/%d" bundle_hits (Bundle.used b) (digest_client gm)
        (Client_cache.weighted_metrics g).Metrics.cost_prefetched

  let check ~weight_of files () =
    let head = prefix files in
    let per_kind kind =
      let what = Cache.kind_name kind in
      let c = facade ~weight_of kind and m = Model_cache.create kind ~capacity in
      lockstep ~what head (Cache.access c)
        (model_access ~mem:(Model_cache.mem m) ~promote:(Model_cache.promote m)
           ~charge:(Model_cache.charge m) ~insert:(Model_cache.insert m) ~weight_of)
      @ expect (sorted (Cache.contents c) = sorted (Model_cache.contents m))
          "%s: residents differ from the reference" what
    in
    let bundle_file =
      let c = bundle_facade ~weight_of
      and m = Model_cache.Bundle.create ~capacity in
      lockstep ~what:"bundle" head (Cache.access c)
        (model_access ~mem:(Model_cache.Bundle.mem m) ~promote:(Model_cache.Bundle.promote m)
           ~charge:(Model_cache.Bundle.charge m) ~insert:(Model_cache.Bundle.insert m) ~weight_of)
      @ expect (sorted (Cache.contents c) = sorted (Model_cache.Bundle.contents m))
          "bundle: residents differ from the reference"
    in
    let bundle_groups =
      let b = Bundle.create ~capacity and m = Model_cache.Bundle.create ~capacity in
      lockstep ~what:"bundle groups" head
        (serve_bundles (module Bundle) b ~weight_of)
        (serve_bundles (module Model_cache.Bundle) m ~weight_of)
      @ expect (sorted (Bundle.contents b) = sorted (Model_cache.Bundle.contents m))
          "bundle groups: residents differ from the reference"
    in
    let full =
      List.concat_map
        (fun c ->
          Array.iter (fun f -> ignore (Cache.access c f)) files;
          cache_identities ~what:(Cache.name c) c)
        (caches ~weight_of)
    in
    let g = Client_cache.create ~config:g5 ~weight_of ~capacity () in
    List.concat_map per_kind Cache.all_kinds
    @ bundle_file @ bundle_groups @ full
    @ client_identities ~what:"g5" (Client_cache.run_files g files)

  let input ~seed =
    let (files, weight_of), generate_ns =
      generate_timed (fun () ->
          let files = Generator.generate_files ~seed ~events profile in
          (files, weight_table profile files))
    in
    {
      accesses = events * (List.length Cache.all_kinds + 3);
      replay = replay ~weight_of files;
      check = check ~weight_of files;
      streams = [ files ];
      weight_of = Some weight_of;
      client_capacity = capacity;
      kinds = Cache.all_kinds;
      plan = Plan.make { Plan.default with Plan.seed = seed };
      generate_ns;
      generated = events;
    }
end

(* cluster-faults: five role-symmetric nodes with three-way replication
   and replicated metadata, under message loss, slow links, per-node
   outage windows, client crashes and one node leaving and rejoining. *)
module Cluster_faults = struct
  let events = 20_000
  let nodes = 5
  let replicas = 3

  let plan ~seed =
    {
      Plan.default with
      Plan.seed;
      loss_rate = 0.05;
      outage_period = 1_000;
      outage_rate = 0.2;
      outage_length = 400;
      crash_rate = 0.001;
    }

  let config ~seed =
    {
      Cluster.default_config with
      Cluster.nodes;
      replicas;
      ring_seed = seed;
      metadata = Cluster.Replicated_with_group;
      client_scheme = Scheme.Aggregating g5;
      node_scheme = Scheme.Aggregating g5;
      faults = plan ~seed;
      churn = [ (events / 3, Cluster.Leave (nodes - 1)); (2 * events / 3, Cluster.Join (nodes - 1)) ];
    }

  let digest (r : Cluster.result) =
    Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%h" r.Cluster.accesses r.Cluster.client_hits
      r.Cluster.server_requests r.Cluster.server_hits r.Cluster.store_fetches r.Cluster.routed_fetches
      r.Cluster.failovers r.Cluster.faults.Counters.degraded_fetches r.Cluster.faults.Counters.timeouts
      r.Cluster.moved_files r.Cluster.mean_latency

  let identities (r : Cluster.result) =
    let f = r.Cluster.faults in
    expect (r.Cluster.accesses = events) "cluster: accesses lost"
    @ expect
        (r.Cluster.client_hits + r.Cluster.server_requests = r.Cluster.accesses)
        "cluster: client hits + server requests <> accesses"
    @ expect
        (r.Cluster.routed_fetches + f.Counters.degraded_fetches = r.Cluster.server_requests)
        "cluster: routed + degraded <> server requests"
    @ expect
        (f.Counters.lost_messages + f.Counters.outage_denials = f.Counters.timeouts)
        "cluster: lost + outage denials <> timeouts"
    @ expect
        (List.fold_left (fun n (_, k) -> n + k) 0 r.Cluster.per_node_requests
        = r.Cluster.server_requests)
        "cluster: per-node requests do not sum to server requests"
    @ expect (r.Cluster.rebalances = 2) "cluster: churn ops not applied"
    @ expect (Counters.total_faults f > 0) "cluster: no fault reached the run"

  (* One healthy node, one client and a plain LRU client cache reduce
     the cluster to the paper's two-level path, whose reference model
     replays every access outcome. *)
  let degenerate trace =
    let config =
      {
        Cluster.default_config with
        Cluster.clients = 1;
        client_scheme = Scheme.Plain Cache.Lru;
        per_client_metadata = false;
        write_invalidation = false;
      }
    in
    let r = Cluster.run config trace in
    let m =
      Model_system.Server.run
        (Model_system.Server.create ~filter_kind:Cache.Lru
           ~filter_capacity:config.Cluster.client_capacity
           ~server_capacity:config.Cluster.node_capacity ~scheme:(Server_cache.Aggregating g5) ())
        trace
    in
    expect
      (r.Cluster.client_hits = m.Metrics.client_accesses - m.Metrics.server_requests
      && r.Cluster.server_requests = m.Metrics.server_requests
      && r.Cluster.server_hits = m.Metrics.server_hits
      && r.Cluster.store_fetches = m.Metrics.store_fetches)
      "cluster: the degenerate cluster differs from the two-level reference"

  let input ~seed =
    let trace, generate_ns =
      generate_timed (fun () -> Generator.generate ~seed ~events Profile.server)
    in
    let config = config ~seed in
    {
      accesses = events;
      replay = (fun () -> digest (Cluster.run config trace));
      check =
        (fun () ->
          identities (Cluster.run config trace)
          @ degenerate (Agg_trace.Trace.sub trace ~pos:0 ~len:check_events));
      streams = [ Agg_trace.Trace.files trace ];
      weight_of = None;
      client_capacity = config.Cluster.client_capacity;
      kinds = [];
      plan = Plan.make config.Cluster.faults;
      generate_ns;
      generated = events;
    }
end

let workloads =
  [
    ("paper-g5", Paper.input);
    ("policies", Policies.input);
    ("cluster-faults", Cluster_faults.input);
  ]

(* ---------- the traced pass ---------- *)

type layer = { mutable ns : float; mutable calls : int }

let per_call l = if l.calls = 0 then 0.0 else l.ns /. float_of_int l.calls

type pass = {
  pass_ns_per_access : float;
  layers : (string * float) list;  (** per-layer ns per call *)
  counts : int * int * int * int;  (** groups built, prefetches issued, used, retries *)
  hits : int list;  (** client hits per stream, for the cross-check *)
}

(* One aggregating client per stream, driven call by call with a span
   around every call into a layer: successor tracking, the data cache,
   group building, ring routing of each group fetch over a five-node
   three-replica ring, the fault plan's verdict on each fetch attempt,
   and event emission into an in-memory sink. The demand caches of
   [p.kinds] then replay each stream with a span around every access. *)
let traced_pass p ~ring =
  let mk () = { ns = 0.0; calls = 0 } in
  let successor = mk () and cache = mk () and group = mk () in
  let routing = mk () and faults = mk () and telemetry = mk () in
  let time l f =
    let t0 = now () in
    let r = f () in
    l.ns <- l.ns +. ns_since t0;
    l.calls <- l.calls + 1;
    r
  in
  let groups = ref 0 and issued = ref 0 and used = ref 0 and retries = ref 0 in
  let accesses = ref 0 in
  let t0 = now () in
  let client files =
    let tracker = g5_tracker () in
    let c = Cache.create ?weight_of:p.weight_of g5.Config.cache_kind ~capacity:p.client_capacity in
    let sink = Sink.memory () in
    let speculative = Int_table.create () in
    let hits = ref 0 in
    Array.iteri
      (fun i file ->
        time successor (fun () -> Tracker.observe tracker file);
        let hit = time cache (fun () -> Cache.access c file) in
        if hit then begin
          incr hits;
          time telemetry (fun () -> Sink.emit sink (Event.Demand_hit { file; depth = 0 }));
          if Int_table.mem speculative file then begin
            incr used;
            Int_table.remove speculative file
          end
        end
        else begin
          time telemetry (fun () -> Sink.emit sink (Event.Demand_miss { file }));
          Int_table.remove speculative file;
          let members =
            time group (fun () ->
                Group_builder.build tracker ~group_size:g5.Config.group_size file)
          in
          incr groups;
          time telemetry (fun () ->
              Sink.emit sink (Event.Group_built { anchor = file; size = List.length members }));
          let targets = time routing (fun () -> Ring.group ring ~replicas:3 file) in
          let rec attempt k =
            if
              k < List.length targets
              && time faults (fun () -> Plan.message_lost p.plan ~time:i ~attempt:k)
            then begin
              incr retries;
              attempt (k + 1)
            end
          in
          attempt 0;
          let admitted = time cache (fun () -> Cache.insert_cold_group c (List.tl members)) in
          List.iter
            (fun m ->
              incr issued;
              Int_table.set speculative m 1;
              time telemetry (fun () -> Sink.emit sink (Event.Prefetch_issued { file = m })))
            admitted
        end)
      files;
    accesses := !accesses + Array.length files;
    !hits
  in
  let hits = List.map client p.streams in
  List.iter
    (fun kind ->
      List.iter
        (fun files ->
          let c = Cache.create ?weight_of:p.weight_of kind ~capacity:p.client_capacity in
          Array.iter (fun f -> ignore (time cache (fun () -> Cache.access c f))) files;
          accesses := !accesses + Array.length files)
        p.streams)
    p.kinds;
  {
    pass_ns_per_access = ns_since t0 /. float_of_int !accesses;
    layers =
      [
        ("successor_ns_per_observe", per_call successor);
        ("group_ns_per_build", per_call group);
        ("cache_ns_per_op", per_call cache);
        ("routing_ns_per_lookup", per_call routing);
        ("faults_ns_per_query", per_call faults);
        ("telemetry_ns_per_event", per_call telemetry);
      ];
    counts = (!groups, !issued, !used, !retries);
    hits;
  }

(* The traced pass mirrors [Client_cache.access] call for call, so its
   client must reach the library client's hits and prefetch counts. *)
let check_traced p (first : pass) =
  let reference =
    List.map
      (fun files ->
        Client_cache.run_files
          (Client_cache.create ~config:g5 ?weight_of:p.weight_of ~capacity:p.client_capacity ())
          files)
      p.streams
  in
  let groups, issued, used, _ = first.counts in
  let sum f = List.fold_left (fun n m -> n + f m) 0 reference in
  expect
    (first.hits = List.map (fun m -> m.Metrics.hits) reference
    && groups = sum (fun m -> m.Metrics.demand_fetches)
    && issued = sum (fun m -> m.Metrics.prefetch.Metrics.issued)
    && used = sum (fun m -> m.Metrics.prefetch.Metrics.used))
    "traced pass: its client differs from Client_cache"

(* ---------- command line and reporting ---------- *)

let setup_reps = 7

let json_result ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

let run ~input ~seed ~seconds ~trace =
  let setup () = Array.init inputs (fun k -> input ~seed:((seed * inputs) + k)) in
  let setups =
    List.init setup_reps (fun _ ->
        Gc.full_major ();
        let t0 = now () in
        let ps = setup () in
        let ns = ns_since t0 in
        (ps, ns, speed_factor ()))
  in
  let ps = match setups with (ps, _, _) :: _ -> ps | [] -> assert false in
  (* A set-up and the generation timed inside it are both scaled by the
     calibration that followed the set-up. *)
  let setup_s (_, ns, f) = ns *. f /. 1e9 in
  let generate_ns (ps, _, f) =
    let total g = Array.fold_left (fun n p -> n +. g p) 0.0 ps in
    total (fun p -> p.generate_ns) *. f /. total (fun p -> float_of_int p.generated)
  in
  (* The untimed first replay of every input is its reference output. *)
  let reference = Array.map (fun p -> p.replay ()) ps in
  let attempted = ref 0 and failed = ref 0 in
  let measured () =
    let samples = ref [] in
    Gc.full_major ();
    repeat_for ~seconds (fun () ->
        let k = !attempted mod inputs in
        let t0 = now () in
        let digest = ps.(k).replay () in
        let ns = ns_since t0 in
        samples := (ns *. speed_factor () /. float_of_int ps.(k).accesses) :: !samples;
        incr attempted;
        if digest <> reference.(k) then incr failed);
    ( [
        ("access_ns", median !samples, "ns");
        ("access_ns_p90", quantile 0.9 !samples, "ns");
        ("setup_s", median (List.map setup_s setups), "s");
      ],
      [] )
  in
  let traced () =
    let ring = Ring.create ~seed ~nodes:5 () in
    let first = Array.make inputs None and passes = ref [] in
    repeat_for ~seconds (fun () ->
        let k = !attempted mod inputs in
        let q = traced_pass ps.(k) ~ring in
        let f = speed_factor () in
        let q =
          {
            q with
            pass_ns_per_access = q.pass_ns_per_access *. f;
            layers = List.map (fun (name, ns) -> (name, ns *. f)) q.layers;
          }
        in
        (match first.(k) with
        | None -> first.(k) <- Some q
        | Some f -> if q.counts <> f.counts || q.hits <> f.hits then incr failed);
        passes := q :: !passes;
        incr attempted);
    let firsts = List.filter_map Fun.id (Array.to_list first) in
    let layer name = median (List.map (fun q -> List.assoc name q.layers) !passes) in
    let total f = List.fold_left (fun n q -> n + f q.counts) 0 firsts in
    let groups = total (fun (g, _, _, _) -> g) and issued = total (fun (_, i, _, _) -> i) in
    let used = total (fun (_, _, u, _) -> u) and retries = total (fun (_, _, _, r) -> r) in
    ( [ ("generate_ns_per_event", median (List.map generate_ns setups), "ns") ]
      @ List.map (fun (name, _) -> (name, layer name, "ns")) (List.hd firsts).layers
      @ [
          ("traced_access_ns", median (List.map (fun q -> q.pass_ns_per_access) !passes), "ns");
          ("groups_built", float_of_int groups, "count");
          ("prefetch_useful_pct", 100.0 *. float_of_int used /. float_of_int (max 1 issued), "%");
          ("fetch_retries", float_of_int retries, "count");
        ],
      List.concat
        (List.mapi
           (fun k f -> match f with Some q -> check_traced ps.(k) q | None -> [])
           (Array.to_list first)) )
  in
  let metrics, traced_failures = if trace then traced () else measured () in
  let failures = List.concat_map (fun p -> p.check ()) (Array.to_list ps) @ traced_failures in
  List.iter (fun f -> prerr_endline ("perfbench: " ^ f)) failures;
  if !failed > 0 then prerr_endline "perfbench: a replay's outputs differ from the first replay";
  json_result ~correct:(failures = [] && !failed = 0) ~attempted:!attempted ~failed:!failed metrics

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  input seed (non-negative)");
      ("--seconds", Arg.Set_int seconds, "S  measurement time (positive)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_string (Arg.usage_string spec usage);
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> fail ("unexpected argument " ^ a)) usage with
  | Arg.Bad msg -> prerr_string msg; exit 2
  | Arg.Help msg -> print_string msg; exit 0);
  match List.assoc_opt !workload workloads with
  | None -> fail ("unknown workload " ^ !workload)
  | Some _ when !seed < 0 -> fail "--seed must be non-negative"
  | Some _ when !seconds <= 0 -> fail "--seconds must be positive"
  | Some _ when !trace <> 0 && !trace <> 1 -> fail "--trace must be 0 or 1"
  | Some input -> run ~input ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
