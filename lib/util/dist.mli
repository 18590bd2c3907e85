(** Sampling from the discrete distributions used by the workload models. *)

module Zipf : sig
  (** Zipf-like distribution over ranks [0 .. n-1]: the probability of rank
      [k] is proportional to [1 / (k+1)^s]. File-system popularity skew is
      classically modelled this way. [create] builds the cumulative table
      and a guide table of [B = 2^ceil(log2 n)] entries, the first rank
      whose cumulative probability reaches each [j / B]. [sample] draws
      [u] as [Prng.float prng 1.0] does, starts at the guide entry of
      [u]'s bucket and scans forward to the first rank whose cumulative
      probability is [>= u]: expected O(1), allocation-free, and the rank
      a binary search over the whole table would return. *)

  type t

  val create : n:int -> s:float -> t
  (** [create ~n ~s] precomputes the cumulative distribution for [n] ranks
      with exponent [s]. [n] must be positive and [s] non-negative
      ([s = 0.] degenerates to the uniform distribution). *)

  val n : t -> int
  (** Number of ranks. *)

  val sample : t -> Prng.t -> int
  (** [sample t prng] draws a rank in [\[0, n)]. *)

  val prob : t -> int -> float
  (** [prob t k] is the probability mass of rank [k]. *)
end

module Alias : sig
  (** Walker alias method: O(1) sampling from an arbitrary finite discrete
      distribution after O(n) preprocessing. *)

  type t

  val create : float array -> t
  (** [create weights] normalises [weights] (which must be non-negative and
      not all zero) and builds the alias table. *)

  val sample : t -> Prng.t -> int
  (** [sample t prng] draws an index distributed according to the weights. *)

  val size : t -> int
  (** Number of outcomes. *)
end

val geometric : Prng.t -> p:float -> int
(** [geometric prng ~p] is the number of failures before the first success
    in Bernoulli trials with success probability [p]; mean [(1-p)/p].
    [p] must be in (0, 1]. *)

val exponential : Prng.t -> mean:float -> float
(** [exponential prng ~mean] draws from Exp(1/mean). [mean] must be
    positive. *)

val categorical : Prng.t -> float array -> int
(** [categorical prng weights] draws an index with probability proportional
    to its (non-negative) weight. Linear scan; use {!Alias} for repeated
    sampling from the same weights. *)
