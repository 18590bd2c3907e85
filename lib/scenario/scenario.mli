(** Declarative experiments: a scenario is {e data} — workload source,
    topology, fault plan, policy matrix, invariants and expectations —
    serialised in a strict one-line-per-field text format so that a
    directory of [*.scn] files is itself an executable test corpus
    (CoreSim's TestBuilder discipline applied to the paper's harness).
    [sweep] lines turn one scenario into a parameter sweep, and ordering
    expectations compare its cells.

    The codec is strict in the style of {!Agg_obs.Event}: every field of
    a line must be present, recognised and well-typed; unknown fields,
    duplicate sections and malformed values are one-line [line N: ...]
    errors, never silently ignored. [#]-comment and blank lines are
    skipped on input and never produced by {!to_string}, so
    [of_string (to_string s)] round-trips exactly. *)

type workload =
  | Profile of { profile : string; events : int; seed : int }
      (** a calibrated {!Agg_workload.Profile} by name (the four paper
          workloads plus {!Agg_workload.Profile.extras}) *)
  | Trace_file of { file : string }
      (** a real trace in aggtrace format, read via {!Agg_trace.Codec} *)
  | Import_file of { format : Agg_trace.Import.format; file : string }
      (** an external trace ([paths] or [strace]) via {!Agg_trace.Import} *)

type policy =
  | Plain of Agg_cache.Cache.kind  (** demand caching, e.g. [lru] *)
  | Group of int  (** aggregating cache with this group size, e.g. [g5] *)

val policy_name : policy -> string
(** ["lru"], ["arc"], ..., or ["g<N>"] — the codec's policy spelling. *)

type cost = Lan | Wan
(** The path's cost model: {!Agg_system.Cost_model.lan} or
    {!Agg_system.Cost_model.wan}, written [lan] and [wan]. *)

val cost_model : cost -> Agg_system.Cost_model.t
(** The cost model a path's [cost] names. *)

type topology =
  | Path of { client_capacity : int; server_capacity : int; server : policy; cost : cost }
      (** the single Fig. 2 client/server path: the one-client, one-node
          cluster of {!Agg_cluster.Cluster.path_config}, with [server] as
          the node's policy whatever the client's, under the [cost] model.
          The codec writes [server=] and [cost=] only off their defaults,
          [lru] and [lan] *)
  | Fleet of { clients : int; client_capacity : int; server_capacity : int }
      (** many clients, one server: the one-node {!Agg_cluster.Cluster} *)
  | Cluster of {
      nodes : int;
      replicas : int;
      placement : Agg_cluster.Cluster.metadata_placement;
      ring_seed : int;
      clients : int;
      client_capacity : int;
      node_capacity : int;
      churn : (int * Agg_cluster.Cluster.churn_op) list;
    }  (** a sharded ring of replication groups ({!Agg_cluster.Cluster}) *)

type sweep =
  | Loss of float list  (** the fault plan's message-loss rate *)
  | Outage_rate of float list  (** the fault plan's outage rate *)
  | Replicas of int list  (** a cluster topology's replication factor *)
  | Placement of Agg_cluster.Cluster.metadata_placement list
      (** a cluster topology's metadata placement *)
  | Clients of int list  (** a fleet or cluster topology's client count *)
  | Server of policy list  (** a path topology's server policy *)
  | Cost of cost list  (** a path topology's cost model *)
(** One axis of a parameter sweep: a field of the scenario and the values
    it takes, written [sweep <field>=<v1>,<v2>,...]. The cells of a
    scenario are the cross product of its axes and its policy matrix.
    The field's value on its base line (the faults or topology line) must
    be the axis's first value, so the scenario without its sweep lines is
    its first point. *)

val sweep_field : sweep -> string
(** ["loss"], ["outage_rate"], ["replicas"], ["placement"], ["clients"],
    ["server"] or ["cost"]. *)

val sweep_labels : sweep -> string list
(** The axis's values as the codec prints them, in axis order. *)

type invariant =
  | Conservation
      (** per cell: counter identities hold (accesses = hits + server
          requests, server hits within requests, rates within bounds) *)
  | Belady_bound
      (** no plain policy in the matrix beats Belady's offline optimum at
          the client capacity on this workload *)
  | G1_equals_lru
      (** an aggregating cache with group size 1 produces exactly the
          plain-LRU load counters on this topology *)
  | Jobs_invariance
      (** the rendered cells are byte-identical at jobs=1 and jobs=2 *)
  | Every_request_served
      (** every demand miss is eventually served: server requests =
          accesses − client hits, and routed + degraded = server
          requests *)

val all_invariants : invariant list

type order = Below  (** strictly less *) | At_most  (** less or equal *)

type expectation =
  | Hit_rate_min of { policy : policy; percent : float }
      (** the client hit rate of every cell of [policy] is at least
          [percent] *)
  | Hit_rate_max of { policy : policy; percent : float }
  | Ordered of { order : order; metric : string; field : string; lhs : string; rhs : string }
      (** at every point of the other coordinates, [metric] of the cell
          whose [field] is [lhs] is [order] that of the cell whose [field]
          is [rhs]. [field] is ["policy"] or a swept field; [lhs] and
          [rhs] are labels on its axis (policy names for ["policy"]) *)

val metric_names : string list
(** The metrics every cell reports, in render order; an ordering
    expectation names one of them. *)

val expectation_name : expectation -> string
(** A check label, e.g. ["hit_rate policy=lru min=99.5"] or
    ["below metric=hit_rate field=policy lhs=lru rhs=g5"] — the codec
    line without its [expect ] keyword. *)

type slo_metric =
  | Slo_hit_rate  (** windowed client hit rate, percent *)
  | Slo_p99_latency  (** windowed p99 demand latency, ms *)
  | Slo_degraded_rate  (** windowed degraded-fetch rate, percent *)

val slo_metric_name : slo_metric -> string
(** ["hit_rate"], ["p99_latency"], ["degraded_rate"]. *)

val all_slo_metrics : slo_metric list

type slo = {
  slo_metric : slo_metric;
  slo_policy : policy;  (** which cell of the matrix the rule applies to *)
  slo_bound : [ `Min of float | `Max of float ];
  slo_window : int;  (** accesses per {!Agg_obs.Series} window *)
  slo_after : int;
      (** skip windows starting before this access index — excludes the
          cold-start ramp from steady-state rules; 0 = check everything *)
}
(** A service-level rule evaluated over every complete-or-partial
    {!Agg_obs.Series} window with at least one access: the windowed
    metric must satisfy the bound in each checked window. *)

val slo_name : slo -> string
(** A check label, e.g. ["hit_rate policy=g5 min=60 window=2000"] — the
    codec line without its [slo ] keyword ([after=] printed only when
    positive). *)

type t = {
  name : string;
  workload : workload;
  topology : topology;
  faults : Agg_faults.Plan.config;
  policies : policy list;  (** the policy/group-size matrix *)
  sweeps : sweep list;  (** the sweep axes, at most one per field *)
  invariants : invariant list;
  expectations : expectation list;
  slos : slo list;  (** windowed service-level rules; all share one window *)
  expect_violation : bool;
      (** marks a known-bad scenario: the corpus treats it as healthy
          {e iff} some invariant, expectation or slo fails *)
}

type point = (string * string) list
(** A cell's coordinates on the sweep axes: one [(field, value label)]
    per axis, in axis order; [[]] for a scenario with no sweep. *)

val point_name : point -> string
(** ["loss=0.1 replicas=3"]; [""] for the empty point. *)

val points : t -> (point * t) list
(** Every point of the sweep, the last axis varying fastest, each with
    the scenario it stands for: the base with the point's values in
    place and no sweeps. [[([], t)]] when nothing is swept. *)

val to_string : t -> string
(** Canonical text form, starting with the [#scenario v1] header. *)

val of_string : string -> (t, string) result
(** Strict parse of {!to_string}'s format. [Error] messages are one line,
    prefixed [line N:]. Round-trip law: [of_string (to_string s) = Ok s].
    A cluster line with more replicas than nodes is an error. Sweep and
    ordering lines are checked against the whole file: a sweep of an
    unknown, repeated or (on this topology) absent field; with an empty,
    malformed, out-of-range or repeated value; with a value that cannot
    act (a [replicas] value above [nodes], an [outage_rate] axis whose
    faults line has no outage windows); or whose field's base-line value
    is not the axis's first value; and an ordering on an unknown metric
    or field or a value off its axis are errors. *)

val load_file : string -> (t, string) result
(** {!of_string} over a file's contents; IO and parse errors are prefixed
    with the offending path (and line, when known). *)

val validate : t -> unit
(** @raise Invalid_argument on a non-positive count/capacity/event total,
    an empty or duplicated policy matrix, a duplicated invariant, an
    expectation outside [0, 100] or naming a policy absent from the
    matrix, an invalid fault plan ({!Agg_faults.Plan.validate}), a
    negative churn time, more replicas than nodes, or an invalid slo: duplicated, mixed window
    sizes, a non-positive window, a negative [after], a rate bound
    outside [0, 100], a negative latency bound, or a policy absent from
    the matrix; and on a sweep {!of_string} would reject, or an ordering
    expectation that compares a value with itself. *)
