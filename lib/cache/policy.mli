(** The replacement-policy interface shared by every cache simulated in
    this repository, in its size/cost-aware (weighted) form.

    Keys are non-negative integers (file identifiers; [Int_table], which
    indexes every policy, rejects negative keys), so [-1] can stand for
    "no key" in an unboxed result. A policy owns only the
    {e ordering and accounting} logic; hit/miss statistics live in
    {!Cache}. The interface is deliberately finer-grained than [access]:
    the aggregating cache inserts speculative group members at the cold
    end of the recency order without recording an access, which requires
    separate [promote] and [insert] operations.

    Every key carries a {!weight} — a [size] (how much capacity it
    occupies) and a retrieval [cost] (what fetching it again would cost).
    The classical unit-weight policies implement the same signature via
    {!Weighted_of_unit}; at [size = cost = 1] their behaviour is
    observably identical to the historical unweighted interface
    (exactly one victim per full insert, [used = size]). *)

type insert_position =
  | Hot  (** the position a freshly demanded item gets (MRU head for LRU) *)
  | Cold  (** the next-to-evict end; used for speculative group members *)

type weight = { size : int; cost : int }
(** Both components must be positive; see {!check_weight}. [size] is in
    abstract capacity units ("blocks"), [cost] in abstract retrieval-cost
    units. *)

val unit_weight : weight
(** [{size = 1; cost = 1}] — the paper's model, and the default
    everywhere. *)

val is_unit : weight -> bool

val check_weight : who:string -> weight -> unit
(** @raise Invalid_argument when either component is non-positive,
    prefixed with [who]. *)

val pp_weight : Format.formatter -> weight -> unit

module type S = sig
  type t

  val policy_name : string

  val create : capacity:int -> t
  (** [create ~capacity] is an empty cache holding at most [capacity]
      total resident {e size}.
      @raise Invalid_argument when [capacity <= 0]. *)

  val capacity : t -> int

  val size : t -> int
  (** Number of resident keys. *)

  val used : t -> int
  (** Total resident size — [Σ weight.size] over residents. Equal to
      {!size} while every resident was inserted at unit size. The
      conservation invariant [used t <= capacity t] holds after every
      operation. *)

  val mem : t -> int -> bool

  val promote : t -> int -> unit
  (** [promote t key] records an access to a resident [key] (e.g. moves it
      to the MRU position, bumps its frequency). No-op when absent. *)

  val insert : t -> pos:insert_position -> weight:weight -> int -> int list
  (** [insert t ~pos ~weight key] makes [key] resident, evicting as many
      victims as needed to fit [weight.size], and returns them in
      eviction order. Inserting a resident key only repositions it (never
      evicts, never changes its recorded weight) and returns [[]]. A key
      with [weight.size > capacity t] is {e not} admitted: nothing is
      evicted and [[]] is returned (the oversize-bypass rule, as in
      Landlord).
      @raise Invalid_argument when [weight] has a non-positive component. *)

  val charge : t -> int -> cost:int -> unit
  (** [charge t key ~cost] re-credits a resident [key] after a demand hit
      — the hook for rent-based policies: Landlord resets the key's
      credit to [cost]. A no-op for the classical unit policies and when
      [key] is absent. *)

  val evict : t -> int
  (** [evict t] forces out the policy's current victim and returns it;
      [-1] when empty (keys are non-negative, so the sentinel is never a
      key and the call allocates nothing). Used to make room for a group
      before appending its members, so members do not evict one
      another. *)

  val remove : t -> int -> unit
  (** Drops [key] if resident. *)

  val contents : t -> int list
  (** Resident keys, hot end first where the policy has an order. *)

  val clear : t -> unit
end

(** The historical unit-weight policy surface — what the ten classical
    policies implement natively. *)
module type UNIT = sig
  type t

  val policy_name : string
  val create : capacity:int -> t
  val capacity : t -> int
  val size : t -> int
  val mem : t -> int -> bool
  val promote : t -> int -> unit

  val insert : t -> pos:insert_position -> int -> int
  (** Evicts at most one (unit-size) victim, chosen by the policy's own
      full-cache insert path, and returns it; [-1] when nothing was
      evicted. *)

  val evict : t -> int
  (** As {!S.evict}: the victim, or [-1] when empty. *)

  val remove : t -> int -> unit
  val contents : t -> int list
  val clear : t -> unit
end

(** [Weighted_of_unit (Core)] lifts a unit-weight policy to the weighted
    interface. Sizes are tracked beside the core; while every resident is
    unit-size, [insert] delegates to the core's native insert (identical
    victims, access for access, to the unweighted policy). Once non-unit
    sizes are resident, room is made by repeated [Core.evict] until
    [used + size <= capacity]. [charge] is a no-op. *)
module Weighted_of_unit (Core : UNIT) : sig
  include S

  val core : t -> Core.t
  (** The wrapped unit policy — for policy-specific probes
      ([Mq.queue_of], [Arc.target], …). *)

  val of_core : Core.t -> t
  (** Wraps an already-built core (for tuned/seeded constructors). The
      core's current residents are assumed unit-size. *)
end
