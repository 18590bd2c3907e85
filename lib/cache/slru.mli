(** Segmented LRU (Karedla, Love & Wherry 1994): a probationary segment
    for new arrivals and a protected segment reserved for blocks hit at
    least twice. One hit promotes; eviction always takes the
    probationary LRU end first, so scan traffic cannot flush the
    protected working set. The protected segment is 2/3 of capacity. *)

module Core : Policy.UNIT
(** The unit-weight policy. *)

include Policy.S with type t = Core.t Lift.t

val protected_resident : t -> int -> bool
(** Whether a resident key currently sits in the protected segment. *)
