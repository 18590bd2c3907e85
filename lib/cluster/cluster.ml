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
  cooperative : bool;
  cost : Cost_model.t;
  faults : Plan.config;
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
    cooperative = false;
    cost = Cost_model.lan;
    faults = Plan.none;
    churn = [];
    scope = None;
  }

let path_config =
  {
    default_config with
    clients = 1;
    client_capacity = 300;
    client_scheme = Scheme.plain_lru;
    node_capacity = 1000;
    node_scheme = Scheme.plain_lru;
    per_client_metadata = false;
    write_invalidation = false;
    cooperative = true;
  }

type result = {
  accesses : int;
  client_hits : int;
  server_requests : int;
  server_hits : int;
  store_fetches : int;
  files_transferred : int;
  invalidations : int;
  per_client_hit_rate : (int * float) list;
  routed_fetches : int;
  failovers : int;
  cross_shard_members : int;
  rebalances : int;
  moved_files : int;
  mean_latency : float;
  p95_latency : float;
  p99_latency : float;
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

(* The latencies of a run so far: the last access's, and their sum in
   access order. A record of floats only is stored flat, so neither
   write allocates. *)
type latency = { mutable last : float; mutable sum : float }

(* A run reads the trace's dense keys ([Agg_trace.Trace.keys]: its files
   numbered in order of first access, built once per trace): every
   per-file structure (caches, trackers, [points]) is keyed by the dense
   id, and [ids] turns one back into the file id that ring hashing,
   events and trace phases use.

   A request reads its replicas' states from the routing rows: every
   file at ring point [p] has the group whose [j]-th member's state is
   [rows.(p * k + j)], so routing is one ring point and [k] reads, and
   the ring is walked only when churn rebuilds the rows. A file's point
   is hashed once per ring, on first demand, into [points]. The miss
   path writes into per-run buffers instead of building lists: [route]
   holds the ids of the file's replication group (primary first), [group]
   the client's retrieval group, [staged] a node's own readahead group
   and [admitted] the members a cache just took. *)
type state = {
  config : config;
  sink : Sink.t;  (** [Agg_obs.Scope.sink config.scope], resolved once *)
  metadata_config : Agg_core.Config.t;
  client_group_size : int;  (** files per routed fetch: 1 for a plain client *)
  node_group_size : int;  (** readahead a node stages on a miss: 0 for a plain node *)
  base_plan : Plan.t;  (** client crashes and node 0 — the plan config verbatim *)
  client_states : client_state array;
  mutable ring : Ring.t;
  mutable node_states : node_state array;
      (** sorted by [node_id], rebuilt at churn; searched only to build
          the rows, never indexed by id, so node ids may be as sparse as
          a join makes them *)
  mutable k : int;  (** live replicas: [replicas], or fewer when the ring has fewer nodes *)
  mutable rows : node_state array;  (** [Ring.point_count ring * k] states, rebuilt with [ring] *)
  ids : int array;  (** dense id -> file id *)
  files : Agg_trace.File_id.Dense.key array;  (** access index -> dense id *)
  points : int array;  (** dense id -> ring point, -1 until asked; reset with [rows] *)
  mutable pending_churn : (int * churn_op) list;  (** sorted by time *)
  mutable retired : (int * int) list;  (** departed nodes' request counts *)
  counters : Counters.t;
  latency : latency;
  mutable values : float array;  (** the distinct latencies, in order of first occurrence *)
  mutable counts : int array;  (** [counts.(i)] accesses took [values.(i)] *)
  mutable distinct : int;  (** slots in use in [values] and [counts] *)
  mutable server_requests : int;
  mutable server_hits : int;
  mutable store_fetches : int;
  mutable files_transferred : int;
  mutable invalidations : int;
  mutable routed_fetches : int;
  mutable failovers : int;
  mutable cross_shard_members : int;
  mutable rebalances : int;
  mutable moved_files : int;
  mutable now : int;
  route : int array;
  group : int array;
  staged : int array;
  admitted : int array;
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

(* Binary search of [nodes.(lo) .. nodes.(hi - 1)], sorted by [node_id]. *)
let rec find_node (nodes : node_state array) id lo hi =
  if lo >= hi then invalid_arg (Printf.sprintf "Cluster: node %d has no state" id)
  else
    let mid = (lo + hi) lsr 1 in
    let m = nodes.(mid).node_id in
    if m = id then nodes.(mid)
    else if m < id then find_node nodes id (mid + 1) hi
    else find_node nodes id lo mid

let node_state st id = find_node st.node_states id 0 (Array.length st.node_states)

(* Builds the routing rows of [st.ring] and [st.node_states]:
   [rows.(p * k + j)] is the state of the [j]-th distinct node met walking
   clockwise from ring point [p]. One walk per point, [point_count * k]
   words; run at set-up and after every churn op. *)
let reroute st =
  let k = Int.min st.config.replicas (Ring.node_count st.ring) in
  let group = Array.make k 0 in
  let rows = Array.make (Ring.point_count st.ring * k) st.node_states.(0) in
  for p = 0 to Ring.point_count st.ring - 1 do
    ignore (Ring.point_group_into st.ring ~replicas:k p group);
    for j = 0 to k - 1 do
      rows.((p * k) + j) <- node_state st group.(j)
    done
  done;
  st.k <- k;
  st.rows <- rows;
  Array.fill st.points 0 (Array.length st.points) (-1)

let make_state config (keys : Agg_trace.Trace.keys) =
  validate config;
  let metadata_config =
    match (Scheme.group_config config.client_scheme, Scheme.group_config config.node_scheme) with
    | Some c, _ | _, Some c -> c
    | None, None -> Agg_core.Config.default
  in
  let client_group_size = Scheme.group_size config.client_scheme in
  let node_group_size =
    match Scheme.group_config config.node_scheme with
    | Some c -> c.Agg_core.Config.group_size
    | None -> 0
  in
  let st =
    {
      config;
      sink = Agg_obs.Scope.sink config.scope;
      metadata_config;
      client_group_size;
      node_group_size;
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
      node_states = Array.init config.nodes (make_node config metadata_config);
      k = 0;
      rows = [||];
      ids = keys.file;
      files = keys.key;
      points = Array.make (Array.length keys.file) (-1);
      pending_churn = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) config.churn;
      retired = [];
      counters = Counters.create ();
      latency = { last = 0.0; sum = 0.0 };
      values = Array.make 16 0.0;
      counts = Array.make 16 0;
      distinct = 0;
      server_requests = 0;
      server_hits = 0;
      store_fetches = 0;
      files_transferred = 0;
      invalidations = 0;
      routed_fetches = 0;
      failovers = 0;
      cross_shard_members = 0;
      rebalances = 0;
      moved_files = 0;
      now = 0;
      route = Array.make config.replicas 0;
      group = Array.make client_group_size 0;
      staged = Array.make (Int.max 1 node_group_size) 0;
      admitted = Array.make (Int.max client_group_size node_group_size) 0;
    }
  in
  reroute st;
  st

(* The ring point of dense file [d], hashed on first demand. *)
let point st d =
  let p = st.points.(d) in
  if p >= 0 then p
  else begin
    let p = Ring.point_of st.ring st.ids.(d) in
    st.points.(d) <- p;
    p
  end

(* Writes the ids of dense file [d]'s replication group to [st.route],
   primary first, and returns where the group's states start in
   [st.rows]. *)
let route st d =
  let row = point st d * st.k in
  for j = 0 to st.k - 1 do
    st.route.(j) <- st.rows.(row + j).node_id
  done;
  row

(* Is [ns] among [rows.(i) .. rows.(stop - 1)]? *)
let rec row_holds (rows : node_state array) ns i stop =
  i < stop && (rows.(i) == ns || row_holds rows ns (i + 1) stop)

(* Does [ns] replicate dense file [d]? A scan of [d]'s row. *)
let replicates st ns d =
  let row = point st d * st.k in
  row_holds st.rows ns row (row + st.k)

(* --- churn ------------------------------------------------------------- *)

let insert_node_sorted node_states fresh =
  let nodes = Array.append node_states [| fresh |] in
  Array.stable_sort (fun a b -> Int.compare a.node_id b.node_id) nodes;
  nodes

let apply_op st op =
  match op with
  | Join node ->
      let ring = Ring.add st.ring node in
      let fresh = make_node st.config st.metadata_config node in
      let before = st.node_states in
      st.ring <- ring;
      st.node_states <- insert_node_sorted before fresh;
      reroute st;
      let moved = ref 0 in
      (* Every existing node drops the cached files the new ring takes out
         of its group; those now owned by the joiner are handed over cold.
         Consistent hashing keeps this minimal: only groups that gained
         [node] change at all. *)
      Array.iter
        (fun ns ->
          List.iter
            (fun f ->
              if not (replicates st ns f) then begin
                Cache.remove ns.cache f;
                if replicates st fresh f && not (Cache.mem fresh.cache f) then
                  Cache.insert_cold fresh.cache f;
                incr moved
              end)
            (Cache.contents ns.cache))
        before;
      st.rebalances <- st.rebalances + 1;
      st.moved_files <- st.moved_files + !moved;
      if Sink.enabled st.sink then
        Sink.emit st.sink (Agg_obs.Event.Ring_rebalance { node; joined = true; moved = !moved })
  | Leave node ->
      let ring = Ring.remove st.ring node in
      let departing = node_state st node in
      st.ring <- ring;
      st.node_states <-
        Array.of_list (List.filter (fun ns -> ns.node_id <> node) (Array.to_list st.node_states));
      reroute st;
      let moved = ref 0 in
      (* The departing node hands each cached file to the file's new
         primary, the first state of its row; its successor metadata
         leaves with it (the Owner_node placement pays for that,
         Replicated_with_group does not). *)
      List.iter
        (fun f ->
          let ts = st.rows.(point st f * st.k) in
          if not (Cache.mem ts.cache f) then begin
            Cache.insert_cold ts.cache f;
            incr moved
          end)
        (Cache.contents departing.cache);
      st.retired <- (node, departing.requests) :: st.retired;
      st.rebalances <- st.rebalances + 1;
      st.moved_files <- st.moved_files + !moved;
      if Sink.enabled st.sink then
        Sink.emit st.sink (Agg_obs.Event.Ring_rebalance { node; joined = false; moved = !moved })

let rec apply_churn st ~time =
  match st.pending_churn with
  | (t, op) :: rest when t <= time ->
      st.pending_churn <- rest;
      apply_op st op;
      apply_churn st ~time
  | _ -> ()

(* --- serving ----------------------------------------------------------- *)

(* [a mod k], with no division when [0 <= a < k]: a first attempt, or a
   client id the config already covers. *)
let[@inline] wrap a k = if 0 <= a && a < k then a else a mod k

let invalidate_others st ~writer file =
  Array.iteri
    (fun i cs ->
      if i <> writer && Cache.mem cs.cache file then begin
        Cache.remove cs.cache file;
        st.invalidations <- st.invalidations + 1
      end)
    st.client_states

(* The resilience loop over the [k] replicas in [st.route], whose states
   start at [st.rows.(row)]: timed-out attempts are retried up to the
   policy's budget, then the fetch degrades. Attempt [a] targets group
   member [a mod k], so exhausting one node's retry fails over to the
   next replica instead of re-asking the dead one; at k = 1 every attempt
   goes to the primary. Returns the attempt that got through, or -1 when
   the budget ran dry. *)
let rec attempt_route st ~row ~time ~attempt ~file =
  let r = Resilience.default in
  let k = st.k in
  let j = wrap attempt k in
  let target = st.route.(j) in
  let plan = st.rows.(row + j).plan in
  let down = Plan.server_down plan ~time in
  if not (down || Plan.message_lost plan ~time ~attempt) then attempt
  else begin
    if down then st.counters.Counters.outage_denials <- st.counters.Counters.outage_denials + 1
    else st.counters.Counters.lost_messages <- st.counters.Counters.lost_messages + 1;
    st.counters.Counters.timeouts <- st.counters.Counters.timeouts + 1;
    if Sink.enabled st.sink then Sink.emit st.sink (Agg_obs.Event.Fetch_timeout { file; attempt });
    if attempt < r.Resilience.max_retries then begin
      st.counters.Counters.retries <- st.counters.Counters.retries + 1;
      let next = st.route.(wrap (attempt + 1) k) in
      if next <> target then begin
        st.failovers <- st.failovers + 1;
        if Sink.enabled st.sink then
          Sink.emit st.sink (Agg_obs.Event.Replica_failover { file; failed = target; target = next })
      end;
      attempt_route st ~row ~time ~attempt:(attempt + 1) ~file
    end
    else -1
  end

(* Reconstruct the routing phases of a finished [attempt_route] loop for
   the trace context: per failed attempt, its timeout budget, the backoff
   before the retry, and a zero-width ["route"] marker when the retry
   fails over to another replica. *)
let push_route_phases ctx st ~failures =
  let r = Resilience.default in
  let k = st.k in
  for a = 0 to failures - 1 do
    let target = st.route.(a mod k) in
    Agg_obs.Trace_ctx.push ctx ~cat:"timeout"
      (Printf.sprintf "attempt%d n%d" a target)
      ~dur_ms:r.Resilience.timeout_ms;
    if a < r.Resilience.max_retries then begin
      Agg_obs.Trace_ctx.push ctx ~cat:"backoff"
        (Printf.sprintf "backoff%d" (a + 1))
        ~dur_ms:(Resilience.backoff_ms r ~attempt:(a + 1));
      let next = st.route.((a + 1) mod k) in
      if next <> target then
        Agg_obs.Trace_ctx.push ctx ~cat:"route"
          (Printf.sprintf "failover n%d->n%d" target next)
          ~dur_ms:0.0
    end
  done

(* §3: an access to dense file [d] is piggy-backed to wherever the
   metadata lives; the states of its [k] replicas start at
   [st.rows.(row)] *)
let observe st ~client ~row d =
  match st.config.metadata with
  | Owner_node -> Tracker.observe_client st.rows.(row).tracker ~client d
  | Replicated_with_group ->
      for j = row to row + st.k - 1 do
        Tracker.observe_client st.rows.(j).tracker ~client d
      done
  | Client_side -> Tracker.observe_client st.client_states.(client).tracker ~client:0 d

(* Serves a client miss of [file], dense id [d], already routed to [row]
   (its ids in [st.route]), and leaves its latency in [st.latency.last]
   (a float returned from here would be boxed). Caches and trackers see
   [d]; events and trace phases report [file]. *)
let serve st ~client ~time ~tracing ~row ~file d =
  st.server_requests <- st.server_requests + 1;
  let k = st.k in
  let primary = st.route.(0) in
  let cs = st.client_states.(client) in
  if not st.config.cooperative then observe st ~client ~row d;
  let attempt =
    if not (Plan.enabled st.base_plan) then 0 else attempt_route st ~row ~time ~attempt:0 ~file
  in
  let r = Resilience.default in
  let failures = if attempt >= 0 then attempt else r.Resilience.max_retries + 1 in
  (match tracing with
  | Some ctx -> push_route_phases ctx st ~failures
  | None -> ());
  (* what the failed attempts cost, summed in the order the loop met them *)
  let waited = ref 0.0 in
  for a = 0 to failures - 1 do
    waited := !waited +. Resilience.failure_cost_ms r ~attempt:a
  done;
  if attempt < 0 then begin
    (* Retry budget dry across the whole group: degraded single-file
       fallback through the primary. The demanded file is still served
       (counted against the primary's cache as usual), but no group is
       built, no members travel, and nothing speculative is staged. *)
    st.counters.Counters.degraded_fetches <- st.counters.Counters.degraded_fetches + 1;
    if Sink.enabled st.sink then Sink.emit st.sink (Agg_obs.Event.Fetch_degraded { file; dropped = 0 });
    let ns = st.rows.(row) in
    ns.requests <- ns.requests + 1;
    (match Agg_obs.Scope.series st.config.scope with
    | Some s ->
        Agg_obs.Series.observe_degraded s ~index:time;
        (* the fallback is served by the primary: mirror [ns.requests] *)
        Agg_obs.Series.observe_node s ~index:time ~node:primary
    | None -> ());
    let served_from_memory = Cache.access ns.cache d in
    if served_from_memory then st.server_hits <- st.server_hits + 1
    else st.store_fetches <- st.store_fetches + 1;
    st.files_transferred <- st.files_transferred + 1;
    let fallback =
      Cost_model.demand_fetch_latency st.config.cost ~served_from_disk:(not served_from_memory)
    in
    (match tracing with
    | Some ctx ->
        Agg_obs.Trace_ctx.push ctx ~cat:"degraded"
          (Printf.sprintf "degraded f%d@n%d" file primary)
          ~dur_ms:fallback
    | None -> ());
    st.latency.last <- !waited +. fallback
  end
  else begin
    let j = wrap attempt k in
    let node = st.route.(j) in
    let ns = st.rows.(row + j) in
    st.routed_fetches <- st.routed_fetches + 1;
    ns.requests <- ns.requests + 1;
    if Sink.enabled st.sink then Sink.emit st.sink (Agg_obs.Event.Node_routed { file; node });
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
    let group = st.group in
    let group_len =
      Agg_core.Group_builder.build_into source_tracker ~group_size:st.client_group_size d group
    in
    let served_from_memory = Cache.access ns.cache d in
    if served_from_memory then st.server_hits <- st.server_hits + 1
    else begin
      st.store_fetches <- st.store_fetches + 1;
      (* an aggregating node stages its own readahead off its metadata;
         under [Client_side] its tracker is empty and this is a no-op *)
      let g = st.node_group_size in
      if g > 0 then begin
        (* the client's group came off this same tracker when the node
           holds the metadata; at equal sizes it is the same build *)
        let reuse =
          (match st.config.metadata with
          | Owner_node | Replicated_with_group -> true
          | Client_side -> false)
          && st.client_group_size = g
        in
        let staged = if reuse then group else st.staged in
        let staged_len =
          if reuse then group_len
          else Agg_core.Group_builder.build_into ns.tracker ~group_size:g d staged
        in
        for i = 1 to staged_len - 1 do
          if not (Cache.mem ns.cache staged.(i)) then st.store_fetches <- st.store_fetches + 1
        done;
        ignore (Cache.insert_cold_into ns.cache staged ~pos:1 ~len:(staged_len - 1) st.admitted)
      end
    end;
    (* members travel to the client; ones this node does not replicate
       come straight off the store and are never staged here *)
    st.files_transferred <- st.files_transferred + group_len;
    for i = 1 to group_len - 1 do
      let m = group.(i) in
      if replicates st ns m then begin
        if not (Cache.mem ns.cache m) then begin
          st.store_fetches <- st.store_fetches + 1;
          Cache.insert_cold ns.cache m
        end
      end
      else begin
        st.cross_shard_members <- st.cross_shard_members + 1;
        st.store_fetches <- st.store_fetches + 1
      end
    done;
    ignore (Cache.insert_cold_into cs.cache group ~pos:1 ~len:(group_len - 1) st.admitted);
    let base =
      Cost_model.demand_fetch_latency st.config.cost ~served_from_disk:(not served_from_memory)
    in
    let served_ms =
      if Plan.enabled st.base_plan then begin
        let multiplier = Plan.latency_multiplier ns.plan ~time ~attempt in
        if multiplier > 1.0 then
          st.counters.Counters.slowed_fetches <- st.counters.Counters.slowed_fetches + 1;
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
    st.latency.last <- !waited +. served_ms
  end

(* Adds the latency in [st.latency.last] to the running sum and to the
   count of its value. The distinct values are few (hit, demand fetch,
   slowed fetch, each retry ladder), so a scan from the first finds the
   common ones at once. *)
let record_latency st =
  let l = st.latency.last in
  st.latency.sum <- st.latency.sum +. l;
  let n = st.distinct in
  let i = ref 0 in
  while !i < n && st.values.(!i) <> l do
    incr i
  done;
  if !i = n then begin
    if n = Array.length st.values then begin
      let values = Array.make (2 * n) 0.0 and counts = Array.make (2 * n) 0 in
      Array.blit st.values 0 values 0 n;
      Array.blit st.counts 0 counts 0 n;
      st.values <- values;
      st.counts <- counts
    end;
    st.values.(n) <- l;
    st.distinct <- n + 1
  end;
  st.counts.(!i) <- st.counts.(!i) + 1

(* Replays event [i] of [trace], reading its columns in place. *)
let access st trace i =
  let time = st.now in
  st.now <- time + 1;
  apply_churn st ~time;
  let client = wrap (Agg_trace.Trace.client trace i) st.config.clients in
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
    if Sink.enabled st.sink then Sink.emit st.sink (Agg_obs.Event.Client_crashed { client; wiped })
  end;
  cs.accesses <- cs.accesses + 1;
  let file = Agg_trace.Trace.file trace i in
  let d = (st.files.(time) :> int) in
  (* a cooperative access is routed here, once: the piggy-backed observe
     and a miss share the row; otherwise only a miss is routed *)
  let cooperative = st.config.cooperative in
  let row = if cooperative then route st d else 0 in
  if cooperative then observe st ~client ~row d;
  let tracing =
    match Agg_obs.Scope.trace_ctx st.config.scope with
    | Some ctx when Agg_obs.Trace_ctx.sampled ctx ~request:time -> Some ctx
    | _ -> None
  in
  let hit = Cache.access cs.cache d in
  if hit then begin
    cs.hits <- cs.hits + 1;
    let served = st.config.cost.Cost_model.client_memory in
    (match tracing with
    | Some ctx -> Agg_obs.Trace_ctx.push ctx ~cat:"hit" "client hit" ~dur_ms:served
    | None -> ());
    st.latency.last <- served
  end
  else serve st ~client ~time ~tracing ~row:(if cooperative then row else route st d) ~file d;
  record_latency st;
  let latency = st.latency.last in
  (match Agg_obs.Scope.trace_ctx st.config.scope with
  | Some ctx -> Agg_obs.Trace_ctx.commit ctx ~request:time ~file ~latency_ms:latency
  | None -> ());
  (match Agg_obs.Scope.series st.config.scope with
  | Some s ->
      Agg_obs.Series.observe_access s ~index:time ~hit;
      Agg_obs.Series.observe_latency s ~index:time
        ~us:(int_of_float ((latency *. 1000.0) +. 0.5))
  | None -> ());
  if st.config.write_invalidation && Agg_trace.Trace.is_write trace i then
    invalidate_others st ~writer:client d

let per_node_requests st =
  let all =
    List.rev_append st.retired
      (Array.to_list (Array.map (fun ns -> (ns.node_id, ns.requests)) st.node_states))
  in
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
  let st = make_state config (Agg_trace.Trace.keys trace) in
  for i = 0 to Agg_trace.Trace.length trace - 1 do
    access st trace i
  done;
  let accesses = Array.fold_left (fun acc cs -> acc + cs.accesses) 0 st.client_states in
  let client_hits = Array.fold_left (fun acc cs -> acc + cs.hits) 0 st.client_states in
  let percentile =
    Agg_util.Stats.percentile_of_counts (Array.sub st.values 0 st.distinct)
      (Array.sub st.counts 0 st.distinct)
  in
  {
    accesses;
    client_hits;
    server_requests = st.server_requests;
    server_hits = st.server_hits;
    store_fetches = st.store_fetches;
    files_transferred = st.files_transferred;
    invalidations = st.invalidations;
    per_client_hit_rate =
      Array.to_list
        (Array.mapi (fun i cs -> (i, Agg_util.Stats.ratio cs.hits cs.accesses)) st.client_states);
    routed_fetches = st.routed_fetches;
    failovers = st.failovers;
    cross_shard_members = st.cross_shard_members;
    rebalances = st.rebalances;
    moved_files = st.moved_files;
    (* summed in access order, as the mean of the latencies listed in
       order would be *)
    mean_latency = (if accesses = 0 then 0.0 else st.latency.sum /. float_of_int accesses);
    p95_latency = percentile 0.95;
    p99_latency = percentile 0.99;
    per_node_requests = per_node_requests st;
    faults = st.counters;
  }

let client_hit_rate (r : result) = Agg_util.Stats.ratio r.client_hits r.accesses
let server_hit_rate (r : result) = Agg_util.Stats.ratio r.server_hits r.server_requests

let reconcile digest (r : result) =
  let events = Agg_obs.Digest.counts digest and f = r.faults in
  let expected =
    {
      events with
      Agg_obs.Counter.node_routes = r.routed_fetches;
      replica_failovers = r.failovers;
      ring_rebalances = r.rebalances;
      fetch_timeouts = f.Counters.timeouts;
      degraded_fetches = f.Counters.degraded_fetches;
      client_crashes = f.Counters.crashes;
    }
  in
  let field (name, result, stream) = Printf.sprintf "%s: result %d vs events %d" name result stream in
  let served = r.routed_fetches + f.Counters.degraded_fetches in
  match
    List.map field (Agg_obs.Counter.diff expected events)
    @
    if served = r.server_requests then []
    else [ Printf.sprintf "routed + degraded vs server_requests: %d <> %d" served r.server_requests ]
  with
  | [] -> Ok ()
  | mismatches -> Error (String.concat "; " mismatches)

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "accesses=%d client_hits=%d (%.1f%%) cluster: %d requests, %d hits (%.1f%%), %d store fetches, \
     %d files sent, %d invalidations, %d routed, %d failovers, %d cross-shard, %d rebalances (%d \
     moved), mean=%.3fms p95=%.3fms p99=%.3fms"
    r.accesses r.client_hits
    (100.0 *. client_hit_rate r)
    r.server_requests r.server_hits
    (100.0 *. server_hit_rate r)
    r.store_fetches r.files_transferred r.invalidations r.routed_fetches r.failovers
    r.cross_shard_members r.rebalances r.moved_files r.mean_latency r.p95_latency r.p99_latency
