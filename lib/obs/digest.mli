(** Per-run observability products derived from an event stream.

    A digest folds {!Event.t}s into one {!Counter.t} and the three
    headline histograms of the instrumentation layer — speculative-resident
    lifetime, stack distance at demand hits, and built group size. It also
    replays the simulator's lazy wasted-prefetch detection (a demand miss
    on a file whose prefetch was never promoted), so the record's
    [evicted_unused] reconciles *exactly* with [Agg_core.Metrics]
    aggregates: see [Agg_core.Metrics.reconcile_client]. *)

type t

val create : ?weight_of:(int -> int * int) -> unit -> t
(** [weight_of file] is the file's [(size, cost)] pair for the record's
    byte and cost sums; every file is [(1, 1)] when omitted, making them
    mirrors of the unweighted counts. Kept as a bare pair so the util
    tier stays below [Agg_cache]. *)

val observe : t -> Event.t -> unit
(** Folds one event, in stream order — the replayed [evicted_unused]
    count is order-sensitive. *)

val of_events : ?weight_of:(int -> int * int) -> Event.t list -> t

val counts : t -> Counter.t
(** Everything the stream counted so far: each event under its kind,
    [evicted_unused] as the replay detects it (always
    [<= evicted_speculative]), and the [weight_of] byte and cost sums.
    This is the digest's own record, not a copy: it changes as the digest
    observes, and is not to be mutated. *)

val byte_weighted_hit_rate : t -> float
(** [bytes_hit / bytes_accessed]; [0.] before any access. *)

val total_retrieval_cost : t -> int
(** [cost_fetched + cost_prefetched]. *)

val lifetime : t -> Histogram.t
(** Accesses from prefetch issue to promotion or physical eviction. *)

val hit_depth : t -> Histogram.t
(** Stack distance at each demand hit. *)

val group_size : t -> Histogram.t
(** Size (anchor included) of each built group. *)

val pp : Format.formatter -> t -> unit
