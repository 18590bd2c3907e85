(** A log-bucketed histogram of non-negative integers.

    Bucket 0 holds the value 0 and bucket [i >= 1] holds the range
    [2^(i-1) .. 2^i - 1], so any int fits in 63 buckets and [add] is a
    handful of instructions — cheap enough for per-event recording. Count,
    sum, min and max are tracked exactly; quantiles are bucket-resolution
    approximations.

    Histograms are mergeable: {!merge} is associative and commutative with
    {!create} as identity, so per-domain histograms built under
    [Agg_util.Pool] can be reduced to one after a sweep (the qcheck
    properties in [test/test_obs.ml] pin this, including pooled-vs-
    sequential equality). *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Records one observation. @raise Invalid_argument on a negative value. *)

val count : t -> int
val sum : t -> int
val mean : t -> float
(** [0.] when empty. *)

val min_value : t -> int option
val max_value : t -> int option
(** Exact extremes; [None] when empty. *)

val merge : t -> t -> t
(** [merge a b] is a fresh histogram of both inputs' observations; the
    arguments are not mutated. *)

val quantile : t -> float -> int option
(** [quantile t q] for [q] in [0,1] is the inclusive upper bound of the
    smallest bucket whose cumulative count reaches [q * count], clamped to
    the observed maximum; monotone in [q]. [None] when empty.
    @raise Invalid_argument when [q] is outside [0,1]. *)

val buckets : t -> (int * int * int) list
(** Non-empty buckets as [(lo, hi, count)], in increasing value order. *)
