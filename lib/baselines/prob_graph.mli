(** Griffioen & Appleton's probability-graph prefetcher (USENIX '94), the
    paper's main related-work comparator. Edge weights count how often a
    file is accessed within a *lookahead window* after another; files whose
    estimated chance exceeds a minimum threshold are explicitly prefetched.
    Contrast with the aggregating cache: frequency- rather than
    recency-based, needs a window parameter and a probability threshold,
    and prefetches on every access rather than fetching groups on misses. *)

type t

val create : ?lookahead:int -> ?threshold:float -> capacity:int -> unit -> t
(** [create ~capacity ()] uses the authors' canonical parameters by
    default: lookahead window of 2 and minimum chance 0.1. The cache is a
    plain LRU {!Agg_core.Client_cache} engine that admits each candidate
    ({!Agg_core.Client_cache.admit}), so the prefetch counters are the
    engine's.
    @raise Invalid_argument on non-positive capacity/lookahead or a
    threshold outside (0, 1]. *)

val access : t -> Agg_trace.File_id.t -> bool
(** Demand access; [true] on hit. Updates the graph, then prefetches every
    file related to the accessed one with chance ≥ threshold. *)

val run : t -> Agg_trace.Trace.t -> Agg_core.Metrics.client
val metrics : t -> Agg_core.Metrics.client

val chance : t -> src:Agg_trace.File_id.t -> dst:Agg_trace.File_id.t -> float
(** Current estimate of P(dst within the lookahead after src). *)
