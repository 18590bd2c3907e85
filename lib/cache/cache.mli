(** Statistics-keeping cache over any replacement policy, selectable at
    runtime. This is what the simulators and the experiment harness use.

    The ten built-in kinds are unit-weight cores under the one weighted
    lift ({!Lift}), which the cache calls directly; a natively weighted
    policy enters through {!of_policy}. Either way each operation crosses
    one indirect call — into the core, or into the policy — probes the
    index once and builds no list.

    Weights: a cache optionally carries a [weight_of] function assigning
    each key a {!Policy.weight} (size and retrieval cost). Without it
    every key is {!Policy.unit_weight} and behaviour is byte-identical to
    the historical unweighted facade. *)

type kind = Lru | Lfu | Fifo | Mru | Clock | Random | Mq | Slru | Twoq | Arc

val kind_name : kind -> string
val kind_of_string : string -> kind option
val all_kinds : kind list

type stats = {
  accesses : int;  (** demand accesses seen by {!access} *)
  hits : int;
  misses : int;
  insertions : int;  (** all insertions, demand and speculative *)
  speculative_insertions : int;  (** cold-end insertions via {!insert_cold} *)
  evictions : int;
}

val pp_stats : Format.formatter -> stats -> unit

type weighted_stats = {
  bytes_accessed : int;  (** Σ size over demand accesses *)
  bytes_hit : int;  (** Σ size over demand hits *)
  cost_fetched : int;  (** Σ cost over demand misses (each implies a fetch) *)
  cost_prefetched : int;  (** Σ cost over admitted speculative insertions *)
}
(** With no [weight_of], these are the unit-weight counters:
    [bytes_accessed = accesses], [cost_fetched = misses], … *)

type t

val create : ?weight_of:(int -> Policy.weight) -> kind -> capacity:int -> t
(** [create kind ~capacity] builds one of the ten built-in policies.
    [weight_of] must be pure and stable per key for the cache's lifetime.
    @raise Invalid_argument when [capacity <= 0]. *)

val of_policy :
  ?weight_of:(int -> Policy.weight) -> (module Policy.S with type t = 'a) -> 'a -> t
(** [of_policy (module P) state] wraps an externally built policy (e.g.
    [Agg_baselines.Landlord]) in the statistics-keeping facade. {!kind}
    is [None] for such caches; {!name} is [P.policy_name]. *)

val kind : t -> kind option
(** The built-in policy this cache was created with; [None] for
    {!of_policy}-wrapped caches. *)

val name : t -> string
(** The underlying policy's [policy_name]. *)

val capacity : t -> int
val size : t -> int

val used : t -> int
(** Total resident size ({!Policy.S.used}); equals {!size} at unit
    weights. *)

val mem : t -> int -> bool
(** Residency probe; does not touch statistics or recency state. *)

val access : t -> int -> bool
(** [access t key] simulates a demand access: on a hit the key is
    promoted and re-credited with its cost ({!Policy.S.hit}) and [true]
    is returned; on a miss the key is admitted hot with its weight
    ({!Policy.S.admit}) and [false] is returned. Statistics are updated.
    A key whose size exceeds the whole capacity is fetched
    ([cost_fetched] grows) but not admitted. One index probe and one
    policy call per outcome. Nothing is allocated unless the policy's
    arrays must grow: they hold {!Policy.presize} residents from the
    start and double past that. *)

val insert_cold : t -> int -> unit
(** [insert_cold t key] inserts [key] at the cold (next-to-evict) end
    without recording an access — the speculative group-member path. A
    resident key is left where it is (prefetching never demotes data that
    earned its place). *)

val insert_cold_group : t -> int list -> int list
(** [insert_cold_group t keys] appends the non-resident members of [keys]
    as a block at the cold end, preserving their order (the first key is
    the last of the block to be evicted). Room for the whole block is made
    *first*, so members never evict one another — the semantics of a group
    arriving in one retrieval (paper §3). Members are admitted while their
    cumulative size fits in [capacity - 1] (at unit weights: at most
    [capacity - 1] members), so a just-demanded file is never displaced by
    its own group. Returns the members actually inserted. A wrapper over
    {!insert_cold_into}. *)

val insert_cold_into : t -> int array -> pos:int -> len:int -> int array -> int
(** [insert_cold_into t keys ~pos ~len admitted] is {!insert_cold_group}
    over the slice [keys.(pos) .. keys.(pos + len - 1)], with a buffer the
    caller owns: the members actually inserted are written, in order, to
    [admitted.(0) .. admitted.(n - 1)] and [n] is returned. Nothing else
    of [admitted] is read or written, so it may hold anything beforehand.
    Past the policy's growth (see {!access}) it allocates nothing: room
    is made by forced evictions. A victim a member's insertion still
    causes (ARC can shed a resident under directory pressure) is counted
    in [evictions] and reported to the eviction observer like any
    other.
    @raise Invalid_argument when the slice is out of bounds for [keys] or
    [admitted] is shorter than [len]. *)

val insert_hot : t -> int -> unit
(** Inserts or promotes [key] at the hot end without counting an access. *)

val remove : t -> int -> unit
val contents : t -> int list

val depth : t -> int -> int option
(** [depth t key] is [key]'s stack distance — its 0-based position from
    the hot end of the policy's {!contents} order — or [None] when not
    resident. O(size): an instrumentation probe (see [Agg_obs]), not a hot
    path; does not touch statistics or recency state. *)

val set_on_evict : t -> (int -> unit) -> unit
(** [set_on_evict t f] calls [f victim] whenever an insertion or group
    admission physically evicts a resident key (not on {!remove} or
    {!clear}). One observer at a time; used by the instrumentation layer
    to attribute evictions. Unset by default, at zero cost. [f] becomes
    the policy's sink ({!Policy.OPS.set_sink}), replacing any sink set on an
    {!of_policy} state. *)

val stats : t -> stats

val weighted_stats : t -> weighted_stats
(** Always maintained; at unit weights the byte counters mirror the
    unweighted ones. *)

val hit_rate : t -> float
(** Hits over accesses; [0.] before any access. *)

val byte_hit_rate : t -> float
(** Bytes hit over bytes accessed; [0.] before any access. Equal to
    {!hit_rate} at unit weights. *)

val reset_stats : t -> unit
(** Zeroes the counters (weighted included), keeping the resident set —
    used to exclude cache warm-up from measurements. *)

val clear : t -> unit
(** Empties the cache and zeroes the counters. *)
