(** Declarative experiments: a scenario is {e data} — workload source,
    topology, fault plan, policy matrix, invariants and expectations —
    serialised in a strict one-line-per-field text format so that a
    directory of [*.scn] files is itself an executable test corpus
    (CoreSim's TestBuilder discipline applied to the paper's harness).

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

type topology =
  | Path of { client_capacity : int; server_capacity : int }
      (** the single Fig. 2 client/server path: the one-client, one-node
          cluster of {!Agg_cluster.Cluster.path_config}, whose server is
          plain LRU whatever the client's policy *)
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

type policy =
  | Plain of Agg_cache.Cache.kind  (** demand caching, e.g. [lru] *)
  | Group of int  (** aggregating cache with this group size, e.g. [g5] *)

val policy_name : policy -> string
(** ["lru"], ["arc"], ..., or ["g<N>"] — the codec's policy spelling. *)

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

type expectation =
  | Hit_rate_min of { policy : policy; percent : float }
      (** the named cell's client hit rate is at least [percent] *)
  | Hit_rate_max of { policy : policy; percent : float }

val expectation_name : expectation -> string
(** A check label, e.g. ["hit_rate policy=lru min=99.5"] — the codec
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
  policies : policy list;  (** the policy/group-size matrix; one cell each *)
  invariants : invariant list;
  expectations : expectation list;
  slos : slo list;  (** windowed service-level rules; all share one window *)
  expect_violation : bool;
      (** marks a known-bad scenario: the corpus treats it as healthy
          {e iff} some invariant, expectation or slo fails *)
}

val to_string : t -> string
(** Canonical text form, starting with the [#scenario v1] header. *)

val of_string : string -> (t, string) result
(** Strict parse of {!to_string}'s format. [Error] messages are one line,
    prefixed [line N:]. Round-trip law: [of_string (to_string s) = Ok s]. *)

val load_file : string -> (t, string) result
(** {!of_string} over a file's contents; IO and parse errors are prefixed
    with the offending path (and line, when known). *)

val validate : t -> unit
(** @raise Invalid_argument on a non-positive count/capacity/event total,
    an empty or duplicated policy matrix, a duplicated invariant, an
    expectation outside [0, 100] or naming a policy absent from the
    matrix, an invalid fault plan ({!Agg_faults.Plan.validate}), a
    negative churn time, or an invalid slo: duplicated, mixed window
    sizes, a non-positive window, a negative [after], a rate bound
    outside [0, 100], a negative latency bound, a policy absent from the
    matrix, or [p99_latency] on a fleet topology (whose cells report no
    latency). *)
