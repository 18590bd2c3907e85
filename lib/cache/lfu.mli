(** Least-frequently-used replacement: evicts the resident key with the
    fewest accesses since it entered the cache (in-cache frequency), oldest
    first on ties. Speculative ([Cold]) insertions start at frequency zero,
    demanded ([Hot]) insertions at one. Every operation is O(1): residents
    sit in frequency-ordered buckets on one {!Agg_util.Dlist_arena}
    (Shah, Mitra & Matani, 2010). *)

module Core : Policy.UNIT
(** The unit-weight policy. *)

include Policy.S with type t = Core.t Lift.t

val frequency : t -> int -> int option
(** [frequency t key] is the current in-cache access count of [key]. *)
