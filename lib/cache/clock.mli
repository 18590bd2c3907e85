(** CLOCK (second-chance) replacement: a one-bit approximation of LRU with
    a rotating hand, as used by most virtual-memory systems. The slots
    for {!Policy.presize} keys are allocated at creation and double as
    residents need them, so a capacity near [max_int] costs memory only
    for the keys it holds. *)

module Core : Policy.UNIT
(** The unit-weight policy. *)

include Policy.S with type t = Core.t Lift.t
