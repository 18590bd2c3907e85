(** Many client machines in front of a sharded server cluster. The
    paper's Fig. 2 fleet — many clients sharing one file server — is the
    one-node ring of {!default_config}, and its single client → network →
    server → store path is the one-client ring of {!path_config}.

    Each cache level is configured by a shared {!Agg_system.Scheme.t}:
    [Plain] for demand caching, [Aggregating] for group retrieval with
    the successor metadata held where {!metadata_placement} says. Trace
    client ids are taken modulo [clients]; with [write_invalidation] a
    write breaks every other client's cached copy.

    The servers form a {!Ring} of N role-symmetric nodes: every file id
    is owned by a replication group of [replicas] nodes, any of which can
    serve it (the apothik Phase-3 design — no master/replica asymmetry,
    so failover is just "ask the next group member"). The cluster adds
    routing, replica failover, node churn with deterministic rebalancing,
    and a choice of where the successor metadata lives.

    {b Resilience}: under an enabled fault plan, a fetch blocked by
    message loss or an outage is retried up to
    [Agg_faults.Resilience.default]'s [max_retries] times, each retry aimed at the next group member, then degrades to a
    single-file demand fetch through the primary (speculative members
    dropped). A client crash wipes that client's cache. Node 0 faults on
    the plan's own seed; nodes [> 0] on seeds drawn through
    {!Agg_util.Prng.derive}.

    {b The one-node cluster} ([nodes = 1], [replicas = 1], [Owner_node],
    no churn) is pinned in [test_cluster.ml] against the two-level
    reference model, at both values of [cooperative], and against
    recorded counters.

    {b Staging}: a node stages its own readahead (an aggregating node's
    group) only on a node miss; the members of a client's group are
    staged one by one at the serving node, and only those it replicates.

    {b Metadata placement} ({!metadata_placement}) is a config axis:

    - [Owner_node] — each node tracks successors of the files it
      primarily owns. At N = 1 that is the single server's metadata; at
      larger N each node only links requests {e it} sees, and a failover
      target usually has no metadata for the file, so groups degenerate
      — the cost of sharding the metadata with the data.
    - [Replicated_with_group] — an observation is replicated to every
      group member, so any serving replica can build full groups at the
      price of k-way metadata write amplification.
    - [Client_side] — each client tracks its own stream and proposes
      groups itself; nodes hold no metadata (and stage no server-side
      readahead), and a client crash now destroys its metadata too — the
      paper's §3 argument for server-side placement, made measurable.

    All decisions flow through {!Agg_util.Prng}; runs are pure functions
    of (config, trace), independent of sweep layout or [--jobs]. *)

type metadata_placement = Owner_node | Replicated_with_group | Client_side

val placement_name : metadata_placement -> string
(** ["owner"], ["group"], ["client"] — stable labels for tables/CLI. *)

val placement_of_string : string -> metadata_placement option
(** Inverse of {!placement_name}. *)

val placements : metadata_placement list
(** All three placements, in sweep order. *)

type churn_op =
  | Join of int  (** node id joins the ring *)
  | Leave of int  (** node id departs, handing cached files over *)

type config = {
  nodes : int;  (** initial node count; ids [0 .. nodes-1] *)
  replicas : int;  (** replication-group size k (clamped to live nodes) *)
  ring_seed : int;  (** placement seed for the consistent-hash ring *)
  metadata : metadata_placement;
  clients : int;  (** fleet size; trace client ids are taken modulo this *)
  client_capacity : int;
  client_scheme : Agg_system.Scheme.t;
  node_capacity : int;  (** per-node server cache capacity *)
  node_scheme : Agg_system.Scheme.t;
  per_client_metadata : bool;
      (** keep a separate successor context per client in each tracker
          (§2.2's "identity of the driving client" model choice) *)
  write_invalidation : bool;
      (** writes invalidate the file in every {e other} client cache *)
  cooperative : bool;
      (** clients piggy-back every access to the metadata (§3), client
          hits included, before the client cache lookup; otherwise the
          metadata observes the misses it serves only *)
  cost : Agg_system.Cost_model.t;  (** latency model of the fetch path *)
  faults : Agg_faults.Plan.config;
      (** node 0 uses this seed verbatim; node [i > 0] uses a seed
          derived from it, so nodes fail independently *)
  churn : (int * churn_op) list;
      (** (time, op) pairs; an op fires just before the first access at
          [now >= time]. Ops beyond the trace never fire. *)
  scope : Agg_obs.Scope.t option;
      (** observability (default [None] = off, zero cost): the scope's
          [sink] receives ring/failover/timeout events; its [series]
          folds every access into the windowed time-series — hit/miss,
          demand latency (µs), degraded fetches and the per-node request
          load (degraded fallbacks count against the primary, mirroring
          [per_node_requests]); its [trace_ctx] records span trees for
          sampled requests — client hit, per-attempt timeout/backoff
          with replica-failover markers, group fetch at the serving node
          or degraded fallback at the primary — on the simulated
          clock *)
}

val default_config : config
(** The paper's fleet: 4 clients of 150 files (aggregating, g = 5) in
    front of one 300-file aggregating server — a single-node,
    single-replica, [Owner_node] ring with no churn — with per-client
    metadata, write invalidation, misses-only metadata (not
    [cooperative]), LAN costs, no faults and no scope (telemetry off). *)

val path_config : config
(** The Fig. 2 path: {!default_config} with one 300-file client in front
    of one 1000-file server, plain LRU at both levels, one shared
    metadata context, no write invalidation, and [cooperative] set, so
    the server's metadata sees every access. *)

type result = {
  accesses : int;
  client_hits : int;
  server_requests : int;
  server_hits : int;  (** summed over all node caches *)
  store_fetches : int;  (** demanded + speculative reads at the store *)
  files_transferred : int;
      (** files sent to clients: the demanded file plus its group's
          members per routed fetch, the demanded file alone per degraded
          one *)
  invalidations : int;  (** cached copies broken by writes elsewhere *)
  per_client_hit_rate : (int * float) list;  (** client id, hit rate *)
  routed_fetches : int;  (** requests served by a live node *)
  failovers : int;
      (** retries re-aimed at a different group member than the attempt
          before them *)
  cross_shard_members : int;
      (** group members fetched from the store because the serving node
          is not in their replication group (never staged there) *)
  rebalances : int;  (** churn ops applied *)
  moved_files : int;  (** cached files whose placement a rebalance changed *)
  mean_latency : float;
      (** ms per access, client hits included — waits, backoff and
          slow-link multipliers too *)
  p95_latency : float;
  p99_latency : float;
  per_node_requests : (int * int) list;
      (** node id -> fetches served (routed + degraded), departed nodes
          included *)
  faults : Agg_faults.Counters.t;
      (** what the plan injected and the resilience policy absorbed,
          fetches served over a slowed link included *)
}

val run : config -> Agg_trace.Trace.t -> result
(** Replays the trace through the clients and the cluster. Deterministic:
    the fault plan is a pure function of its seed and the access index,
    so results are identical run-to-run and for any [--jobs] value. The
    run renumbers the trace's files densely, in order of first access,
    and keys its caches and trackers by those numbers, so its per-file
    memory follows the files it touches, not the span of their ids;
    ring placement, events and trace phases use the trace's own ids.
    @raise Invalid_argument on an invalid config (non-positive counts or
    capacities, bad scheme or plan, negative churn time) or an
    inapplicable churn op (joining a present node, leaving an absent or
    the last node). *)

val client_hit_rate : result -> float

val reconcile : Agg_obs.Digest.t -> result -> (unit, string) Stdlib.result
(** Cross-checks the record of an event-stream digest against the
    result counters — routed fetches ([node_routes]), failovers,
    rebalances, timeouts, degraded fetches and crashes — and the served =
    routed + degraded identity. [Ok ()] when every pair agrees, otherwise
    [Error] naming each mismatching field ({!Agg_obs.Counter.diff}).
    Per-level demand and prefetch counts are not checked: the result has
    no prefetch block. *)

val pp_result : Format.formatter -> result -> unit
