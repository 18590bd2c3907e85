(** The cluster sweep: client hit rate and mean latency as per-node loss
    grows, across node count x replication factor x metadata placement,
    over the full {!Agg_cluster.Cluster} simulator.

    "Node loss" is modelled as independent per-node outage windows
    (period 1000 accesses, 400 accesses down when an epoch is faulty);
    the sweep's loss rate is the probability a given node's epoch opens
    with that node dark. With [k = 1] a dark shard can only degrade to
    the store; with [k >= 2] the resilience budget fails over to the
    next group member, so the cluster keeps serving groups — the
    replication claim the bench section checks. Loss [0.0] is the
    healthy network and matches the fault-free build byte-for-byte. *)

val node_kill_plan : float -> Agg_faults.Plan.config
(** The per-node outage plan the sweep builds from a loss rate: seed 23,
    1000-access epochs, 400 accesses dark when an epoch is faulty.
    [node_kill_plan 0.0] is {!Agg_faults.Plan.none}. *)

type point = {
  scheme : string;
  nodes : int;
  replicas : int;
  placement : string;  (** {!Agg_cluster.Cluster.placement_name} *)
  node_loss : float;
  hit_rate : float;  (** client hit rate, percent *)
  mean_latency : float;  (** ms per access *)
  served : int;  (** server requests (all of them are served) *)
  routed : int;
  failovers : int;
  degraded : int;
}

val sweep :
  ?node_counts:int list ->
  ?node_loss_rates:float list ->
  ?schemes:Agg_system.Scheme.t list ->
  ?replica_counts:int list ->
  ?placements:Agg_cluster.Cluster.metadata_placement list ->
  ?profile:Agg_workload.Profile.t ->
  Experiment.Runner.t ->
  point list
(** One point per (nodes, scheme, k, placement) x loss-rate cell through
    {!Experiment.grid} (spans named
    ["cluster/<workload>/n<N>/k<K>/<placement>/<scheme>/p<loss>"]).
    Every cell builds its own fault plan from its coordinates, so the
    results are deterministic for any [jobs] value. Defaults: 5 nodes
    (apothik's cluster size), node loss 0, 0.1, 0.2 and 0.3, plain LRU
    and aggregating g = 5 (on client and node caches), k = 1 and 3, every
    placement, and the [server] workload. *)

val degraded_reduction : point list -> (int * int) option
(** [(k1, kmax)] — summed degraded fetches at the sweep's highest loss
    rate for the aggregating scheme under [Replicated_with_group], at
    the smallest and largest replica count present. [kmax < k1] is the
    "replication keeps serving" verdict. *)

val figure : profile:Agg_workload.Profile.t -> point list -> Experiment.figure
(** The points of a {!sweep} over [profile] as a two-panel figure (hit
    rate and latency vs node loss) with one series per (scheme, k) under
    [Replicated_with_group] at the first point's node count. *)

val json_of_points : point list -> Agg_util.Json.t
(** The [BENCH_cluster.json] document: every point, the served = routed
    + degraded identity, and the {!degraded_reduction} headline. *)
