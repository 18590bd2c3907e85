(** The replacement-policy interface shared by every cache simulated in
    this repository, in its size/cost-aware (weighted) form.

    Keys are non-negative integers (file identifiers; [Int_table], which
    indexes every policy, rejects negative keys), so [-1] can stand for
    "no key" in an unboxed result. A policy owns only the
    {e ordering and accounting} logic; hit/miss statistics live in
    {!Cache}. The interface is deliberately finer-grained than [access]:
    the aggregating cache inserts speculative group members at the cold
    end of the recency order without recording an access, which requires
    separate [hit] and [admit] operations.

    Every key carries a {!weight} — a [size] (how much capacity it
    occupies) and a retrieval [cost] (what fetching it again would cost).
    The classical unit-weight policies implement {!UNIT} and reach the
    weighted surface through the one lift, {!Lift}; at [size = cost = 1]
    their behaviour is observably identical to the historical unweighted
    interface (at most one victim per full insert, [used = size]).

    No operation builds a list on the access path: an insert returns how
    many residents it evicted and hands each victim to the policy's
    {e sink} ({!OPS.set_sink}), so a caller that only counts evictions pays
    for nothing else. *)

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

val drop_victim : int -> unit
(** The default sink: ignores the victim. *)

val presize : int -> int
(** [presize capacity] is how many entries a policy allocates up front:
    [capacity] itself up to 512, and 512 above it. Every policy doubles
    its arrays from there as residents arrive, so memory follows the
    residents and a capacity near [max_int] costs no more than a small
    one until it fills. The paper's caches (100 to 500 files) are
    allocated whole, at their own size: perfbench's paper-g5 ran 5–7%
    slower per access when its 300-file LRUs kept their arena in arrays
    of 512 entries, grown or allocated, than in arrays of 302. *)

(** Every {!S} operation except [policy_name] and [create], over a
    policy state of type ['c lifted]. {!S} includes it with [lifted]
    replaced by its [t]; the weighted lift ({!Lift}) implements it once
    for every classical policy, with ['c] the core's state. *)
module type OPS = sig
  type 'c lifted

  val capacity : 'c lifted -> int

  val size : 'c lifted -> int
  (** Number of resident keys. *)

  val used : 'c lifted -> int
  (** Total resident size — [Σ weight.size] over residents. Equal to
      {!size} while every resident was inserted at unit size. The
      conservation invariant [used t <= capacity t] holds after every
      operation. *)

  val mem : 'c lifted -> int -> bool

  val hit : 'c lifted -> int -> cost:int -> bool
  (** [hit t key ~cost] is the demand-hit entry point. When [key] is
      resident it records the access and re-credits the key with [cost],
      exactly as {!promote} then {!charge} would, and returns [true];
      otherwise it changes nothing and returns [false]. It probes the
      index once, and a rent-based policy re-keys its heap once. *)

  val promote : 'c lifted -> int -> unit
  (** [promote t key] records an access to a resident [key] (e.g. moves it
      to the MRU position, bumps its frequency). No-op when absent. *)

  val insert : 'c lifted -> pos:insert_position -> weight:weight -> int -> int
  (** [insert t ~pos ~weight key] makes [key] resident, evicting as many
      victims as needed to fit [weight.size]. It returns the number of
      victims and hands each one, in eviction order, to the sink.
      Inserting a resident key only repositions it (never evicts, never
      changes its recorded weight) and returns [0]. A key with
      [weight.size > capacity t] is {e not} admitted: nothing is evicted
      and [0] is returned (the oversize-bypass rule, as in Landlord).
      @raise Invalid_argument when [weight] has a non-positive component. *)

  val admit : 'c lifted -> pos:insert_position -> weight:weight -> int -> int
  (** [admit] is {!insert} for a key the caller knows is not resident —
      the miss path after {!hit} or {!mem} answered [false] — so it skips
      the residency probe. Its result for a resident key is unspecified.
      @raise Invalid_argument when [weight] has a non-positive component. *)

  val set_sink : 'c lifted -> (int -> unit) -> unit
  (** [set_sink t f] makes [f] receive every victim that {!insert} and
      {!admit} evict, in eviction order; it replaces the previous sink.
      {!evict}, {!remove} and {!clear} do not call it. The default sink
      is {!drop_victim}. *)

  val charge : 'c lifted -> int -> cost:int -> unit
  (** [charge t key ~cost] re-credits a resident [key] after a demand hit
      — the hook for rent-based policies: Landlord resets the key's
      credit to [cost]. A no-op for the classical unit policies and when
      [key] is absent. *)

  val evict : 'c lifted -> int
  (** [evict t] forces out the policy's current victim and returns it;
      [-1] when empty (keys are non-negative, so the sentinel is never a
      key and the call allocates nothing). Used to make room for a group
      before appending its members, so members do not evict one
      another. *)

  val remove : 'c lifted -> int -> unit
  (** Drops [key] if resident. *)

  val contents : 'c lifted -> int list
  (** Resident keys, hot end first where the policy has an order. *)

  val clear : 'c lifted -> unit
end

module type S = sig
  type t

  val policy_name : string

  val create : capacity:int -> t
  (** [create ~capacity] is an empty cache holding at most [capacity]
      total resident {e size}.
      @raise Invalid_argument when [capacity <= 0]. *)

  include OPS with type 'c lifted := t
end

(** The unit-weight policy surface — what the ten classical policies
    implement natively. Each operation probes the policy's index once. *)
module type UNIT = sig
  type t

  val policy_name : string
  val create : capacity:int -> t
  val capacity : t -> int
  val size : t -> int
  val mem : t -> int -> bool

  val hit : t -> int -> bool
  (** [hit t key] records an access to a resident [key] — the reposition a
      [Hot] insert of a resident key makes — and returns [true]; [false]
      when [key] is absent. *)

  val demote : t -> int -> bool
  (** [demote t key] repositions a resident [key] as a [Cold] insert of a
      resident key does and returns [true]; [false] when absent. *)

  val admit : t -> pos:insert_position -> int -> int
  (** [admit t ~pos key] makes a non-resident [key] resident at [pos],
      evicting at most one victim chosen by the policy's own full-cache
      path, and returns it; [-1] when nothing was evicted. Unspecified for
      a resident key. *)

  val evict : t -> int
  (** As {!OPS.evict}: the victim, or [-1] when empty. *)

  val remove : t -> int -> bool
  (** Drops [key] if resident and returns whether it was; a policy with
      ghost records may also forget one for [key] (ARC does). *)

  val contents : t -> int list
  val clear : t -> unit
end
