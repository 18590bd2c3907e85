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

  val stddev : t -> float
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

val mean : float array -> float
(** Arithmetic mean; [0.] for the empty array. *)

val percentile : float array -> float -> float
(** [percentile sorted p] is the [p]-quantile ([0 <= p <= 1]) of the
    ascending array [sorted] by rank, without interpolation: the element
    at index [floor ((n - 1) * p)]. [0.] for the empty array. *)

val ratio : int -> int -> float
(** [ratio num den] is [num / den] as a float, and [0.] when [den = 0]. *)

val percent_change : baseline:float -> value:float -> float
(** [(value - baseline) / baseline * 100.], and [0.] when [baseline = 0.]. *)

val log2 : float -> float
(** Base-2 logarithm. *)
