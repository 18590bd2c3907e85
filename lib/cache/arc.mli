(** ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST 2003). Two
    LRU lists, T1 (seen once recently) and T2 (seen at least twice), plus
    ghost lists B1/B2 remembering recent evictions from each; a hit in a
    ghost list moves the adaptation target [p] toward the list that would
    have kept it. Included in the policy zoo as the strongest adaptive
    single-level baseline: like MQ/SLRU/2Q it still cannot rescue a
    second-level cache whose recency signal was filtered away, which is
    the aggregating cache's territory. *)

module Core : Policy.UNIT
(** The unit-weight policy. *)

include Policy.S with type t = Core.t Lift.t

val target : t -> int
(** The current adaptation target for T1's size (for tests). *)

val in_t2 : t -> int -> bool
(** Whether a resident key is in the frequent (T2) list. *)
