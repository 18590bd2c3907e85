(** The Multi-Queue (MQ) replacement policy of Zhou, Philbin & Li
    (USENIX ATC 2001) — the related-work answer (paper §5) to the same
    problem the aggregating server cache attacks: second-level buffer
    caches whose recency signal has been absorbed by upstream caches.

    MQ keeps [m] LRU queues; a block with reference count [c] lives in
    queue ⌊log2 c⌋ (capped), so frequently-referenced blocks sit in
    higher queues and survive longer. Blocks unreferenced for [lifetime]
    accesses are demoted one queue. A ghost buffer ([q_out]) remembers
    the reference counts of recently evicted blocks, so a block that
    returns soon regains its old frequency standing. *)

module Core : Policy.UNIT
(** The unit-weight policy. *)

include Policy.S with type t = Core.t Lift.t

val create_tuned : capacity:int -> queues:int -> lifetime:int -> ghost_factor:int -> t
(** [create_tuned] exposes MQ's parameters; {!create} uses the paper's
    defaults: 8 queues, lifetime = 4 × capacity (a stand-in for their
    adaptive peak-temporal-distance estimate), ghost buffer = 4 × capacity
    entries. *)

val queue_of : t -> int -> int option
(** The queue a resident key currently occupies (for tests). *)
