(** Running statistics and small numeric helpers for experiment reporting. *)

module Running : sig
  (** Single-pass mean/variance (Welford's algorithm). *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** Mean of the observations; [0.] when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; [0.] with fewer than two observations. *)

  val min : t -> float
  (** Smallest observation; [nan] when empty. *)

  val max : t -> float
  (** Largest observation; [nan] when empty. *)
end

module Histogram : sig
  (** Fixed-width bucket histogram over [\[lo, hi)]; out-of-range samples
      are clamped into the first/last bucket. *)

  type t

  val create : lo:float -> hi:float -> buckets:int -> t
  val add : t -> float -> unit
  val count : t -> int
  val bucket_counts : t -> int array
  val percentile : t -> float -> float
  (** [percentile t p] approximates the [p]-th percentile ([0 <= p <= 100])
      by linear interpolation within the containing bucket.
      @raise Invalid_argument on an empty histogram. *)
end

val percentile_of_counts : float array -> int array -> float -> float
(** [percentile_of_counts values counts p] is the [p]-quantile
    ([0 <= p <= 1]) by rank, without interpolation, of the multiset
    holding each [values.(i)] [counts.(i)] times: the element a sort of
    that multiset would put at index [floor ((n - 1) * p)], [n] the sum
    of [counts]. [0.] when [n = 0]. The values need not be sorted or
    distinct, and must not contain NaN; a recorder that keeps one count
    per distinct value answers every percentile from its tallies without
    storing a sample per observation. Sorts the value indices once:
    O(d log d) for [d] values.
    @raise Invalid_argument when [p] is outside [\[0, 1\]] (or NaN), the
    arrays differ in length, or a count is negative. *)

val ratio : int -> int -> float
(** [ratio num den] is [num / den] as a float, and [0.] when [den = 0]. *)

val percent_change : baseline:float -> value:float -> float
(** [(value - baseline) / baseline * 100.], and [0.] when [baseline = 0.]. *)

val log2 : float -> float
(** Base-2 logarithm. *)
