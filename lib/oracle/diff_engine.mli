(** The differential test engine: drives optimized implementations and
    the {!Model_cache} / {!Model_successor} / {!Model_system} reference
    models in lockstep and reports the first divergence.

    Two generators feed it: random operation sequences over the full
    {!Agg_cache.Policy.S} surface ([insert ~pos], the fused [hit],
    [promote], [charge], [evict], [remove], [mem], [clear]) with greedy
    shrinking to a minimal reproducing op list, and calibrated-workload
    traces from every {!Agg_workload.Profile} replayed end-to-end.
    Cross-cutting paper invariants (metrics conservation, Belady
    optimality, group size 1 ≡ plain LRU) are checked on the same
    traces. All generation is driven
    by {!Agg_util.Prng} from an explicit seed, so every failure is
    reproducible from the (seed, ops) pair printed in its detail. *)

type op =
  | Insert of Agg_cache.Policy.insert_position * Agg_cache.Policy.weight * int
  | Hit of int * int
      (** key, cost — the fused demand hit, checked against the model's
          [mem], then [promote] and [charge] *)
  | Promote of int
  | Charge of int * int  (** key, cost — the demand-hit re-credit hook *)
  | Evict
  | Remove of int
  | Mem of int
  | Clear

val ops_to_string : op list -> string
(** Semicolon-separated, suitable for a one-line counterexample report. *)

val gen_ops : Agg_util.Prng.t -> universe:int -> count:int -> op list
(** [count] unit-weight operations over keys in [\[0, universe)],
    weighted towards insertions so caches actually fill. *)

type divergence = { step : int  (** 0-based op index *); detail : string }

val diff_ops : Agg_cache.Cache.kind -> capacity:int -> op list -> divergence option
(** Runs the ops through the optimized policy and its model, comparing
    insert victims (the count an insert returns must equal the victims
    its sink received, and those must equal the model's, in order),
    evict victims, [hit] and [mem] answers, sizes, used totals and
    resident sets after every operation ([remove] included) — and that
    the conservation invariant [used <= capacity] holds. [None] means
    lockstep agreement throughout. @raise Invalid_argument when [capacity <= 0]. *)

type weighted_policy = Landlord | Bundle
(** The weighted baselines of [Agg_baselines], paired with their
    list-based reference restatements in {!Model_cache}. *)

val weighted_policy_name : weighted_policy -> string
val all_weighted_policies : weighted_policy list

val diff_weighted_ops : weighted_policy -> capacity:int -> op list -> divergence option
(** {!diff_ops} for a weighted baseline vs its reference model.
    @raise Invalid_argument when [capacity <= 0]. *)

val diff_ops_mutant : capacity:int -> op list -> divergence option
(** Same lockstep run, but the subject is a deliberately broken LRU that
    promotes to the {e cold} end — the engine's own smoke test. A [None]
    result from a non-trivial op list means the engine has lost its
    teeth. *)

val shrink_ops : (op list -> bool) -> op list -> op list
(** [shrink_ops fails ops] greedily removes windows of operations while
    [fails] keeps holding, returning a (locally) minimal failing list.
    [ops] itself must satisfy [fails]. *)

type check = { name : string; cases : int  (** operations / events compared *); pass : bool; detail : string }

val fuzz_policy_weighted : seed:int -> ops:int -> Agg_cache.Cache.kind -> check
(** At least [ops] generated mixed-weight operations against the
    policy's model, in rounds of fresh caches with varying capacities
    (sizes up to one past the round's capacity, so the oversize bypass
    and the multi-victim path are both exercised). On divergence the
    detail carries the capacity and the shrunk op list. *)

val fuzz_weighted_policy : seed:int -> ops:int -> weighted_policy -> check
(** Mixed-weight fuzz of a weighted baseline against its reference
    model. *)

val landlord_witness : seed:int -> ops:int -> check
(** The Landlord ≡ GreedyDual-Size witness: mixed-weight fuzz of the
    heap-indexed [Agg_baselines.Landlord] against the credit-draining
    {!Model_cache.Landlord_drain}, with sizes rounded down to powers of
    two and integer costs so every float step is exact. Passes only
    with zero divergences. *)

val fuzz_all : seed:int -> ops:int -> check list
(** A unit-weight fuzz ([ops.<kind>]) and {!fuzz_policy_weighted} for
    every kind in {!Agg_cache.Cache.all_kinds}; for every weighted
    baseline a unit-weight fuzz ([ops.landlord], [ops.bundle]) and
    [fuzz_weighted_policy]; and the {!landlord_witness}. *)

val lru_equivalence_checks : seed:int -> events:int -> check list
(** Per profile and per weighted baseline: at unit size/cost the policy
    must be access-for-access identical to LRU — hit answers, eviction
    victims and the exact recency order are compared over the profile's
    calibrated trace. *)

val mutant_check : seed:int -> ops:int -> check
(** Passes iff the engine {e catches} the seeded LRU mutant; the detail
    shows the shrunk counterexample it found. *)

val successor_checks : seed:int -> events:int -> check list
(** Per profile: every successor-list scheme (recency, frequency, at
    several capacities) and the perfect oracle, driven over the profile's
    trace in lockstep with their models — membership answers, ranked
    orders and top predictions compared at every observation. *)

val trace_checks : seed:int -> events:int -> check list
(** Per profile: every policy replayed through {!Agg_cache.Cache} vs
    {!Model_cache}; the aggregating client (tail and head insertion) vs
    {!Model_system.Client}; the two-level system (plain and cooperative)
    vs {!Model_system.Server}; plus the cross-cutting invariants
    (metrics conservation, no policy beats Belady, group size 1 ≡ plain
    LRU). *)

