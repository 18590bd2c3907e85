module Cache = Agg_cache.Cache
module Tracker = Agg_successor.Tracker
module Scheme = Agg_system.Scheme
module Cost_model = Agg_system.Cost_model
module Plan = Agg_faults.Plan
module Resilience = Agg_faults.Resilience
module Counters = Agg_faults.Counters
module Sink = Agg_obs.Sink

type metadata_placement = Owner_node | Replicated_with_group | Client_side

let placement_name = function
  | Owner_node -> "owner"
  | Replicated_with_group -> "group"
  | Client_side -> "client"

let placement_of_string = function
  | "owner" -> Some Owner_node
  | "group" -> Some Replicated_with_group
  | "client" -> Some Client_side
  | _ -> None

let placements = [ Owner_node; Replicated_with_group; Client_side ]

type churn_op = Join of int | Leave of int

type config = {
  nodes : int;
  replicas : int;
  ring_seed : int;
  metadata : metadata_placement;
  clients : int;
  client_capacity : int;
  client_scheme : Scheme.t;
  node_capacity : int;
  node_scheme : Scheme.t;
  per_client_metadata : bool;
  write_invalidation : bool;
  cost : Cost_model.t;
  faults : Plan.config;
  resilience : Resilience.t;
  churn : (int * churn_op) list;
  scope : Agg_obs.Scope.t option;
}

let default_config =
  {
    nodes = 1;
    replicas = 1;
    ring_seed = 17;
    metadata = Owner_node;
    clients = 4;
    client_capacity = 150;
    client_scheme = Scheme.Aggregating Agg_core.Config.default;
    node_capacity = 300;
    node_scheme = Scheme.Aggregating Agg_core.Config.default;
    per_client_metadata = true;
    write_invalidation = true;
    cost = Cost_model.lan;
    faults = Plan.none;
    resilience = Resilience.default;
    churn = [];
    scope = None;
  }

type result = {
  accesses : int;
  client_hits : int;
  server_requests : int;
  server_hits : int;
  store_fetches : int;
  invalidations : int;
  per_client_hit_rate : (int * float) list;
  routed_fetches : int;
  failovers : int;
  cross_shard_members : int;
  slowed_fetches : int;
  rebalances : int;
  moved_files : int;
  mean_latency : float;
  p95_latency : float;
  per_node_requests : (int * int) list;
  faults : Counters.t;
}

type node_state = {
  node_id : int;
  cache : Cache.t;
  tracker : Tracker.t;
  plan : Plan.t;
  mutable requests : int;
}

type client_state = {
  cache : Cache.t;
  mutable tracker : Tracker.t;  (** observed only under [Client_side] *)
  mutable accesses : int;
  mutable hits : int;
}

type state = {
  config : config;
  metadata_config : Agg_core.Config.t;
  base_plan : Plan.t;  (** client crashes and node 0 — the plan config verbatim *)
  client_states : client_state array;
  mutable ring : Ring.t;
  mutable node_states : node_state list;  (** sorted by [node_id] *)
  mutable pending_churn : (int * churn_op) list;  (** sorted by time *)
  mutable retired : (int * int) list;  (** departed nodes' request counts *)
  counters : Counters.t;
  latencies : float array;  (** one slot per trace access, filled in order *)
  mutable server_requests : int;
  mutable server_hits : int;
  mutable store_fetches : int;
  mutable invalidations : int;
  mutable routed_fetches : int;
  mutable failovers : int;
  mutable cross_shard_members : int;
  mutable slowed_fetches : int;
  mutable rebalances : int;
  mutable moved_files : int;
  mutable now : int;
}

let validate config =
  if config.nodes <= 0 then
    invalid_arg (Printf.sprintf "Cluster.run: nodes must be positive (got %d)" config.nodes);
  if config.replicas <= 0 then
    invalid_arg (Printf.sprintf "Cluster.run: replicas must be positive (got %d)" config.replicas);
  if config.clients <= 0 then
    invalid_arg (Printf.sprintf "Cluster.run: clients must be positive (got %d)" config.clients);
  if config.client_capacity <= 0 then
    invalid_arg
      (Printf.sprintf "Cluster.run: client_capacity must be positive (got %d)"
         config.client_capacity);
  if config.node_capacity <= 0 then
    invalid_arg
      (Printf.sprintf "Cluster.run: node_capacity must be positive (got %d)" config.node_capacity);
  Scheme.validate config.client_scheme;
  Scheme.validate config.node_scheme;
  Plan.validate config.faults;
  Resilience.validate config.resilience;
  List.iter
    (fun (time, _) ->
      if time < 0 then
        invalid_arg (Printf.sprintf "Cluster.run: churn time must be non-negative (got %d)" time))
    config.churn

(* Node 0 uses the plan config's seed verbatim (the one-node cluster's
   fault counters are pinned against recorded values); every other node
   faults on a seed derived from it, so outage windows fall independently
   per node. *)
let node_plan (config : config) node =
  if node = 0 then Plan.make config.faults
  else
    let stream = Agg_util.Prng.derive (Agg_util.Prng.create ~seed:config.faults.Plan.seed ()) node in
    let seed = Int64.to_int (Int64.shift_right_logical (Agg_util.Prng.bits64 stream) 1) in
    Plan.make { config.faults with Plan.seed }

let make_node config metadata_config node_id =
  {
    node_id;
    cache = Cache.create (Scheme.cache_kind config.node_scheme) ~capacity:config.node_capacity;
    tracker =
      Tracker.create ~capacity:metadata_config.Agg_core.Config.successor_capacity
        ~policy:metadata_config.Agg_core.Config.metadata_policy
        ~per_client:config.per_client_metadata ();
    plan = node_plan config node_id;
    requests = 0;
  }

let make_client_tracker metadata_config =
  Tracker.create ~capacity:metadata_config.Agg_core.Config.successor_capacity
    ~policy:metadata_config.Agg_core.Config.metadata_policy ()

let make_state config ~accesses =
  validate config;
  let metadata_config =
    match (Scheme.group_config config.client_scheme, Scheme.group_config config.node_scheme) with
    | Some c, _ | _, Some c -> c
    | None, None -> Agg_core.Config.default
  in
  {
    config;
    metadata_config;
    base_plan = Plan.make config.faults;
    client_states =
      Array.init config.clients (fun _ ->
          {
            cache =
              Cache.create (Scheme.cache_kind config.client_scheme)
                ~capacity:config.client_capacity;
            tracker = make_client_tracker metadata_config;
            accesses = 0;
            hits = 0;
          });
    ring = Ring.create ~seed:config.ring_seed ~nodes:config.nodes ();
    node_states = List.init config.nodes (make_node config metadata_config);
    pending_churn = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) config.churn;
    retired = [];
    counters = Counters.create ();
    latencies = Array.make accesses 0.0;
    server_requests = 0;
    server_hits = 0;
    store_fetches = 0;
    invalidations = 0;
    routed_fetches = 0;
    failovers = 0;
    cross_shard_members = 0;
    slowed_fetches = 0;
    rebalances = 0;
    moved_files = 0;
    now = 0;
  }

let rec find_node id = function
  | ns :: rest -> if ns.node_id = id then ns else find_node id rest
  | [] -> invalid_arg (Printf.sprintf "Cluster: node %d has no state" id)

let node_state st id = find_node id st.node_states

let live_replicas st = Int.min st.config.replicas (Ring.node_count st.ring)

(* --- churn ------------------------------------------------------------- *)

let insert_node_sorted node_states fresh =
  List.stable_sort (fun a b -> Int.compare a.node_id b.node_id) (fresh :: node_states)

let apply_op st op =
  match op with
  | Join node ->
      let ring = Ring.add st.ring node in
      let k = Int.min st.config.replicas (Ring.node_count ring) in
      let fresh = make_node st.config st.metadata_config node in
      let moved = ref 0 in
      (* Every existing node drops the cached files the new ring takes out
         of its group; those now owned by the joiner are handed over cold.
         Consistent hashing keeps this minimal: only groups that gained
         [node] change at all. *)
      List.iter
        (fun ns ->
          List.iter
            (fun f ->
              if not (Ring.in_group ring ~replicas:k ~node:ns.node_id f) then begin
                Cache.remove ns.cache f;
                if Ring.in_group ring ~replicas:k ~node f && not (Cache.mem fresh.cache f)
                then Cache.insert_cold fresh.cache f;
                incr moved
              end)
            (Cache.contents ns.cache))
        st.node_states;
      st.ring <- ring;
      st.node_states <- insert_node_sorted st.node_states fresh;
      st.rebalances <- st.rebalances + 1;
      st.moved_files <- st.moved_files + !moved;
      if Sink.enabled (Agg_obs.Scope.sink st.config.scope) then
        Sink.emit (Agg_obs.Scope.sink st.config.scope) (Agg_obs.Event.Ring_rebalance { node; joined = true; moved = !moved })
  | Leave node ->
      let ring = Ring.remove st.ring node in
      let departing = node_state st node in
      st.node_states <- List.filter (fun ns -> ns.node_id <> node) st.node_states;
      let moved = ref 0 in
      (* The departing node hands each cached file to the file's new
         primary; its successor metadata leaves with it (the Owner_node
         placement pays for that, Replicated_with_group does not). *)
      List.iter
        (fun f ->
          let ts = node_state st (Ring.owner ring f) in
          if not (Cache.mem ts.cache f) then begin
            Cache.insert_cold ts.cache f;
            incr moved
          end)
        (Cache.contents departing.cache);
      st.ring <- ring;
      st.retired <- (node, departing.requests) :: st.retired;
      st.rebalances <- st.rebalances + 1;
      st.moved_files <- st.moved_files + !moved;
      if Sink.enabled (Agg_obs.Scope.sink st.config.scope) then
        Sink.emit (Agg_obs.Scope.sink st.config.scope)
          (Agg_obs.Event.Ring_rebalance { node; joined = false; moved = !moved })

let rec apply_churn st ~time =
  match st.pending_churn with
  | (t, op) :: rest when t <= time ->
      st.pending_churn <- rest;
      apply_op st op;
      apply_churn st ~time
  | _ -> ()

(* --- serving ----------------------------------------------------------- *)

let invalidate_others st ~writer file =
  Array.iteri
    (fun i cs ->
      if i <> writer && Cache.mem cs.cache file then begin
        Cache.remove cs.cache file;
        st.invalidations <- st.invalidations + 1
      end)
    st.client_states

(* The resilience loop: timed-out attempts are retried up to the
   policy's budget, then the fetch degrades. Attempt [a] targets group
   member [a mod k], so exhausting one node's retry fails over to the next
   replica instead of re-asking the dead one; at k = 1 every attempt goes
   to the primary. *)
let rec attempt_route st ~group_nodes ~time ~attempt ~waited ~file =
  let r = st.config.resilience in
  let len = List.length group_nodes in
  let target = List.nth group_nodes (attempt mod len) in
  let plan = (node_state st target).plan in
  let down = Plan.server_down plan ~time in
  if not (down || Plan.message_lost plan ~time ~attempt) then `Served (target, attempt, waited)
  else begin
    if down then st.counters.Counters.outage_denials <- st.counters.Counters.outage_denials + 1
    else st.counters.Counters.lost_messages <- st.counters.Counters.lost_messages + 1;
    st.counters.Counters.timeouts <- st.counters.Counters.timeouts + 1;
    if Sink.enabled (Agg_obs.Scope.sink st.config.scope) then
      Sink.emit (Agg_obs.Scope.sink st.config.scope) (Agg_obs.Event.Fetch_timeout { file; attempt });
    let waited = waited +. Resilience.failure_cost_ms r ~attempt in
    if attempt < r.Resilience.max_retries then begin
      st.counters.Counters.retries <- st.counters.Counters.retries + 1;
      let next = List.nth group_nodes ((attempt + 1) mod len) in
      if next <> target then begin
        st.failovers <- st.failovers + 1;
        if Sink.enabled (Agg_obs.Scope.sink st.config.scope) then
          Sink.emit (Agg_obs.Scope.sink st.config.scope)
            (Agg_obs.Event.Replica_failover { file; failed = target; target = next })
      end;
      attempt_route st ~group_nodes ~time ~attempt:(attempt + 1) ~waited ~file
    end
    else `Degraded waited
  end

(* Reconstruct the routing phases of a finished [attempt_route] loop for
   the trace context: per failed attempt, its timeout budget, the backoff
   before the retry, and a zero-width ["route"] marker when the retry
   fails over to another replica. *)
let push_route_phases ctx st ~group_nodes ~failures =
  let r = st.config.resilience in
  let len = List.length group_nodes in
  for a = 0 to failures - 1 do
    let target = List.nth group_nodes (a mod len) in
    Agg_obs.Trace_ctx.push ctx ~cat:"timeout"
      (Printf.sprintf "attempt%d n%d" a target)
      ~dur_ms:r.Resilience.timeout_ms;
    if a < r.Resilience.max_retries then begin
      Agg_obs.Trace_ctx.push ctx ~cat:"backoff"
        (Printf.sprintf "backoff%d" (a + 1))
        ~dur_ms:(Resilience.backoff_ms r ~attempt:(a + 1));
      let next = List.nth group_nodes ((a + 1) mod len) in
      if next <> target then
        Agg_obs.Trace_ctx.push ctx ~cat:"route"
          (Printf.sprintf "failover n%d->n%d" target next)
          ~dur_ms:0.0
    end
  done

let serve st ~client ~time ~tracing file =
  st.server_requests <- st.server_requests + 1;
  let k = live_replicas st in
  let group_nodes = Ring.group st.ring ~replicas:k file in
  let primary = List.hd group_nodes in
  let cs = st.client_states.(client) in
  (* §3: the miss is piggy-backed to wherever the metadata lives *)
  (match st.config.metadata with
  | Owner_node -> Tracker.observe (node_state st primary).tracker ~client file
  | Replicated_with_group ->
      List.iter (fun n -> Tracker.observe (node_state st n).tracker ~client file) group_nodes
  | Client_side -> Tracker.observe cs.tracker file);
  let outcome =
    if not (Plan.enabled st.base_plan) then `Served (primary, 0, 0.0)
    else attempt_route st ~group_nodes ~time ~attempt:0 ~waited:0.0 ~file
  in
  (match tracing with
  | Some ctx ->
      let failures =
        match outcome with
        | `Served (_, a, _) -> a
        | `Degraded _ -> st.config.resilience.Resilience.max_retries + 1
      in
      push_route_phases ctx st ~group_nodes ~failures
  | None -> ());
  match outcome with
  | `Degraded waited ->
      (* Retry budget dry across the whole group: degraded single-file
         fallback through the primary. The demanded file is still served
         (counted against the primary's cache as usual), but no group is
         built, no members travel, and nothing speculative is staged. *)
      st.counters.Counters.degraded_fetches <- st.counters.Counters.degraded_fetches + 1;
      if Sink.enabled (Agg_obs.Scope.sink st.config.scope) then
        Sink.emit (Agg_obs.Scope.sink st.config.scope) (Agg_obs.Event.Fetch_degraded { file; dropped = 0 });
      let ns = node_state st primary in
      ns.requests <- ns.requests + 1;
      (match Agg_obs.Scope.series st.config.scope with
      | Some s ->
          Agg_obs.Series.observe_degraded s ~index:time;
          (* the fallback is served by the primary: mirror [ns.requests] *)
          Agg_obs.Series.observe_node s ~index:time ~node:primary
      | None -> ());
      let served_from_memory = Cache.access ns.cache file in
      if served_from_memory then st.server_hits <- st.server_hits + 1
      else st.store_fetches <- st.store_fetches + 1;
      let fallback =
        Cost_model.demand_fetch_latency st.config.cost ~served_from_disk:(not served_from_memory)
      in
      (match tracing with
      | Some ctx ->
          Agg_obs.Trace_ctx.push ctx ~cat:"degraded"
            (Printf.sprintf "degraded f%d@n%d" file primary)
            ~dur_ms:fallback
      | None -> ());
      waited +. fallback
  | `Served (node, attempt, waited) ->
      let ns = node_state st node in
      st.routed_fetches <- st.routed_fetches + 1;
      ns.requests <- ns.requests + 1;
      if Sink.enabled (Agg_obs.Scope.sink st.config.scope) then
        Sink.emit (Agg_obs.Scope.sink st.config.scope) (Agg_obs.Event.Node_routed { file; node });
      (match Agg_obs.Scope.series st.config.scope with
      | Some s -> Agg_obs.Series.observe_node s ~index:time ~node
      | None -> ());
      (* The group proposal comes from whatever metadata the serving party
         holds. A failover target under [Owner_node] has never observed
         this file, so its proposal naturally collapses to the anchor. *)
      let source_tracker =
        match st.config.metadata with
        | Owner_node | Replicated_with_group -> ns.tracker
        | Client_side -> cs.tracker
      in
      let group =
        match Scheme.group_config st.config.client_scheme with
        | Some c ->
            Agg_core.Group_builder.build source_tracker ~group_size:c.Agg_core.Config.group_size
              file
        | None -> [ file ]
      in
      let served_from_memory = Cache.access ns.cache file in
      if served_from_memory then st.server_hits <- st.server_hits + 1
      else begin
        st.store_fetches <- st.store_fetches + 1;
        (* an aggregating node stages its own readahead off its metadata;
           under [Client_side] its tracker is empty and this is a no-op *)
        match Scheme.group_config st.config.node_scheme with
        | Some c ->
            let group_size = c.Agg_core.Config.group_size in
            (* the client's group came off this same tracker when the
               node holds the metadata; at equal sizes it is the same
               build *)
            let staged =
              match (st.config.metadata, Scheme.group_config st.config.client_scheme) with
              | (Owner_node | Replicated_with_group), Some cc
                when cc.Agg_core.Config.group_size = group_size ->
                  group
              | _ -> Agg_core.Group_builder.build ns.tracker ~group_size file
            in
            let members = match staged with _ :: rest -> rest | [] -> [] in
            List.iter
              (fun m -> if not (Cache.mem ns.cache m) then st.store_fetches <- st.store_fetches + 1)
              members;
            ignore (Cache.insert_cold_group ns.cache members)
        | None -> ()
      end;
      (* members travel to the client; ones this node does not replicate
         come straight off the store and are never staged here *)
      let members = match group with _ :: rest -> rest | [] -> [] in
      List.iter
        (fun m ->
          if Ring.in_group st.ring ~replicas:k ~node m then begin
            if not (Cache.mem ns.cache m) then begin
              st.store_fetches <- st.store_fetches + 1;
              Cache.insert_cold ns.cache m
            end
          end
          else begin
            st.cross_shard_members <- st.cross_shard_members + 1;
            st.store_fetches <- st.store_fetches + 1
          end)
        members;
      ignore (Cache.insert_cold_group cs.cache members);
      let base =
        Cost_model.demand_fetch_latency st.config.cost ~served_from_disk:(not served_from_memory)
      in
      let served_ms =
        if Plan.enabled st.base_plan then begin
          let multiplier = Plan.latency_multiplier ns.plan ~time ~attempt in
          (* counted in the result's own [slowed_fetches], not in
             [st.counters], so the [faults.*] blocks of scenario cells
             and ledgers stay byte-identical *)
          if multiplier > 1.0 then st.slowed_fetches <- st.slowed_fetches + 1;
          base *. multiplier
        end
        else base
      in
      (match tracing with
      | Some ctx ->
          Agg_obs.Trace_ctx.push ctx ~cat:"fetch"
            (Printf.sprintf "fetch f%d@n%d" file node)
            ~dur_ms:served_ms
      | None -> ());
      waited +. served_ms

let access st (e : Agg_trace.Event.t) =
  let time = st.now in
  st.now <- time + 1;
  apply_churn st ~time;
  let client = e.Agg_trace.Event.client mod st.config.clients in
  let cs = st.client_states.(client) in
  if Plan.enabled st.base_plan && Plan.client_crashes st.base_plan ~time ~client then begin
    let wiped = Cache.size cs.cache in
    Cache.clear cs.cache;
    (match st.config.metadata with
    | Client_side ->
        (* client-held metadata dies with the client — the contrast the
           paper's §3 placement argument predicts *)
        cs.tracker <- make_client_tracker st.metadata_config
    | Owner_node | Replicated_with_group -> ());
    st.counters.Counters.crashes <- st.counters.Counters.crashes + 1;
    if Sink.enabled (Agg_obs.Scope.sink st.config.scope) then
      Sink.emit (Agg_obs.Scope.sink st.config.scope) (Agg_obs.Event.Client_crashed { client; wiped })
  end;
  cs.accesses <- cs.accesses + 1;
  let file = e.Agg_trace.Event.file in
  let tracing =
    match Agg_obs.Scope.trace_ctx st.config.scope with
    | Some ctx when Agg_obs.Trace_ctx.sampled ctx ~request:time -> Some ctx
    | _ -> None
  in
  let hit = Cache.access cs.cache file in
  let latency =
    if hit then begin
      cs.hits <- cs.hits + 1;
      let served = st.config.cost.Cost_model.client_memory in
      (match tracing with
      | Some ctx -> Agg_obs.Trace_ctx.push ctx ~cat:"hit" "client hit" ~dur_ms:served
      | None -> ());
      served
    end
    else serve st ~client ~time ~tracing file
  in
  (match Agg_obs.Scope.trace_ctx st.config.scope with
  | Some ctx -> Agg_obs.Trace_ctx.commit ctx ~request:time ~file ~latency_ms:latency
  | None -> ());
  (match Agg_obs.Scope.series st.config.scope with
  | Some s ->
      Agg_obs.Series.observe_access s ~index:time ~hit;
      Agg_obs.Series.observe_latency s ~index:time
        ~us:(int_of_float ((latency *. 1000.0) +. 0.5))
  | None -> ());
  st.latencies.(time) <- latency;
  if st.config.write_invalidation && Agg_trace.Event.is_write e then
    invalidate_others st ~writer:client file

let per_node_requests st =
  let all = List.rev_append st.retired (List.map (fun ns -> (ns.node_id, ns.requests)) st.node_states) in
  let sorted =
    List.sort
      (fun (id, n) (id', n') -> match Int.compare id id' with 0 -> Int.compare n n' | c -> c)
      all
  in
  (* a node that left and re-joined appears twice: sum per id *)
  List.fold_left
    (fun acc (id, n) ->
      match acc with (id', n') :: rest when id' = id -> (id, n + n') :: rest | _ -> (id, n) :: acc)
    [] sorted
  |> List.rev

let run config trace =
  let st = make_state config ~accesses:(Agg_trace.Trace.length trace) in
  Agg_trace.Trace.iter (access st) trace;
  let accesses = Array.fold_left (fun acc cs -> acc + cs.accesses) 0 st.client_states in
  let client_hits = Array.fold_left (fun acc cs -> acc + cs.hits) 0 st.client_states in
  (* the mean reads the latencies in access order; the p95 selection
     then reorders them *)
  let mean_latency = Agg_util.Stats.mean st.latencies in
  {
    accesses;
    client_hits;
    server_requests = st.server_requests;
    server_hits = st.server_hits;
    store_fetches = st.store_fetches;
    invalidations = st.invalidations;
    per_client_hit_rate =
      Array.to_list
        (Array.mapi (fun i cs -> (i, Agg_util.Stats.ratio cs.hits cs.accesses)) st.client_states);
    routed_fetches = st.routed_fetches;
    failovers = st.failovers;
    cross_shard_members = st.cross_shard_members;
    slowed_fetches = st.slowed_fetches;
    rebalances = st.rebalances;
    moved_files = st.moved_files;
    mean_latency;
    p95_latency = Agg_util.Stats.percentile_in_place st.latencies 0.95;
    per_node_requests = per_node_requests st;
    faults = st.counters;
  }

let client_hit_rate (r : result) = Agg_util.Stats.ratio r.client_hits r.accesses
let server_hit_rate (r : result) = Agg_util.Stats.ratio r.server_hits r.server_requests

let reconcile digest (r : result) =
  let checks =
    [
      ("node_routes vs routed_fetches", Agg_obs.Digest.node_routes digest, r.routed_fetches);
      ("replica_failovers vs failovers", Agg_obs.Digest.replica_failovers digest, r.failovers);
      ("ring_rebalances vs rebalances", Agg_obs.Digest.ring_rebalances digest, r.rebalances);
      ("fetch_timeouts vs timeouts", Agg_obs.Digest.fetch_timeouts digest, r.faults.Counters.timeouts);
      ( "degraded_fetches vs degraded",
        Agg_obs.Digest.degraded_fetches digest,
        r.faults.Counters.degraded_fetches );
      ("client_crashes vs crashes", Agg_obs.Digest.client_crashes digest, r.faults.Counters.crashes);
      ( "routed + degraded vs server_requests",
        r.routed_fetches + r.faults.Counters.degraded_fetches,
        r.server_requests );
    ]
  in
  match
    List.filter_map
      (fun (label, a, b) ->
        if a = b then None else Some (Printf.sprintf "%s: %d <> %d" label a b))
      checks
  with
  | [] -> Ok ()
  | mismatches -> Error (String.concat "; " mismatches)

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "accesses=%d client_hits=%d (%.1f%%) cluster: %d requests, %d hits (%.1f%%), %d store fetches, \
     %d invalidations, %d routed, %d failovers, %d cross-shard, %d rebalances (%d moved), \
     mean=%.3fms p95=%.3fms"
    r.accesses r.client_hits
    (100.0 *. client_hit_rate r)
    r.server_requests r.server_hits
    (100.0 *. server_hit_rate r)
    r.store_fetches r.invalidations r.routed_fetches r.failovers r.cross_shard_members r.rebalances
    r.moved_files r.mean_latency r.p95_latency
