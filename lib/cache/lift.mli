(** The weighted lift: a unit-weight policy ({!Policy.UNIT}) on the
    weighted surface ({!Policy.S}). This is the one place sizes meet the
    ten classical policies; each of them ([Lru], [Mq], …) is a [create]
    wrapper over it, and {!Cache} calls it directly.

    A lifted policy holds its core behind one first-class [Policy.UNIT]
    module, so every operation crosses exactly one indirect call (into
    the core), probes the core's index once and builds no list. Sizes are
    tracked beside the core, for non-unit residents only: while every
    resident is unit-size the size table is never read, [admit] is the
    core's own admission (identical victims, access for access, to the
    unweighted policy) and [used] mirrors the core's count. Once non-unit
    sizes are resident, room is made by repeated core evictions until
    [used + size <= capacity]. [charge] is a no-op: the classical
    policies keep no credit. *)

type 'c t
(** A lifted core whose state has type ['c]. *)

val make : (module Policy.UNIT with type t = 'c) -> 'c -> 'c t
(** [make (module C) core] lifts [core]. Its current residents, if any,
    are taken to be unit-size. *)

val core : 'c t -> 'c
(** The wrapped core, for policy-specific probes ([Mq.queue_of],
    [Arc.target], …). *)

include Policy.OPS with type 'c lifted := 'c t
(** As {!Policy.S}. *)
