(** Windowed time-series telemetry over the simulator's access clock.

    A series partitions a run into fixed windows of [window] accesses
    (access index [i] lands in window [i / window]) and keeps, per
    window, one {!Counter.t} — access and hit counts, degraded fetches,
    evictions, node routes and, once weighted, byte and cost sums — plus
    a latency histogram in integer microseconds and dense per-node load
    counts. Every observation is keyed by the access {e index}, not by
    arrival order, so a series built from shards of a run merges into
    exactly the series of the whole run.

    {!merge} is associative and commutative with {!create} as identity
    (the qcheck properties in [test/test_obs.ml] pin this), which makes
    per-shard series reducible under [Agg_util.Pool] with byte-identical
    {!to_json}/{!to_prometheus} output for any [--jobs] value.

    Window sums reconcile exactly with end-of-run aggregates: {!totals}
    of a series fed a run's events equals the run's {!Digest.counts} on
    every field a window records — the telemetry layer never invents
    counts the run did not produce. *)

type t

val create : window:int -> t
(** A fresh series with [window] accesses per window.
    @raise Invalid_argument when [window] is not positive. *)

val window_size : t -> int

val windows : t -> int
(** Number of windows touched so far (highest observed window index + 1;
    0 before any observation). Windows skipped by sparse indices exist
    and hold zero counts. *)

(** {2 Recording}

    All [observe_*] functions file the observation under window
    [index / window_size].
    @raise Invalid_argument when [index] is negative (all), [us] is
    negative ({!observe_latency}), or [node] is negative
    ({!observe_node}). *)

val observe_access : t -> index:int -> hit:bool -> unit
(** One demand access; [hit] when it was served from the local cache. *)

val observe_latency : t -> index:int -> us:int -> unit
(** One access latency, in integer microseconds (topologies without a
    latency model simply never call this). *)

val observe_degraded : t -> index:int -> unit
(** A fetch exhausted its retries and fell back to the degraded
    single-file path. *)

val observe_eviction : t -> index:int -> speculative:bool -> unit
(** A physical eviction: [evicted_speculative] when it removed an
    unpromoted prefetch (the churn the exporters report), else
    [evicted_demand]. *)

val observe_node : t -> index:int -> node:int -> unit
(** A fetch was served by cluster [node] (degraded fallbacks count
    against the primary, mirroring per-node request accounting): one
    [node_routes] and one unit of the node's load. *)

val observe_weighted : t -> index:int -> size:int -> cost:int -> hit:bool -> unit
(** One demand access under per-file weights: [size] bytes were asked
    for, served locally when [hit], else fetched at [cost]. Purely
    additive beside {!observe_access} (callers record both). The first
    weighted observation switches the exporters into the weighted
    format; a series that never sees one exports byte-identical output
    to the unweighted world.
    @raise Invalid_argument when [size] or [cost] is not positive. *)

val of_events : window:int -> Event.t list -> t
(** A series from a decision-event stream, indexing each event by the
    number of demand accesses ([Demand_hit]/[Demand_miss]) seen {e
    before} it — the simulator's access clock, replayed.
    @raise Invalid_argument when [window] is not positive. *)

val merge : t -> t -> t
(** [merge a b] is a fresh series with both inputs' observations,
    aligned window by window; the arguments are not mutated.
    Associative and commutative.
    @raise Invalid_argument when the window sizes differ. *)

(** {2 Per-window accessors}

    All take a window index [w] and raise [Invalid_argument] when [w] is
    outside [0, windows t). *)

val counts : t -> int -> Counter.t
(** The window's record: the series's own, not a copy, so it changes
    as the series observes and is not to be mutated. *)

val hit_rate : t -> int -> float
(** Percent of the window's accesses served locally; [0.] on an empty
    window. *)

val byte_hit_rate : t -> int -> float
(** Percent of the window's bytes served locally; [0.] on an empty (or
    never-weighted) window. *)

val degraded_rate : t -> int -> float
(** Percent of the window's accesses that degraded; [0.] on an empty
    window. *)

val latency_quantile : t -> int -> float -> int option
(** The window's latency quantile in microseconds ({!Histogram.quantile}
    resolution); [None] when no latency was observed.
    @raise Invalid_argument when the quantile is outside [0, 1]. *)

val node_loads : t -> int -> (int * int) list
(** The window's non-zero per-node fetch counts as [(node, count)], in
    increasing node order. *)

val load_imbalance : ?nodes:int -> t -> int -> float
(** Max over mean of the window's per-node loads, across nodes
    [0 .. nodes - 1] ([nodes] defaults to the highest node observed in
    the window, + 1). [1.] is perfectly balanced; [0.] when no load was
    observed. @raise Invalid_argument when [nodes] is not positive. *)

(** {2 Whole-run totals (exact window sums)} *)

val totals : t -> Counter.t
(** A fresh record holding the sum of every window's. *)

val total_latency : t -> Histogram.t
(** All windows' latency observations merged into one histogram. *)

(** {2 Export} *)

val to_json : t -> string
(** The series as one JSON object: window size and an array of per-window
    objects (accesses, hits, degraded, speculative evictions, latency
    quantiles in microseconds, node loads — plus bytes/cost fields once
    any weighted observation was recorded). Deterministic bytes. *)

val to_prometheus : ?prefix:string -> t -> string
(** Prometheus text exposition: one gauge sample per window per metric,
    labelled [{window="w"}] (and [{window="w",node="n"}] for node
    loads). [prefix] defaults to ["agg"]. Deterministic bytes. *)
