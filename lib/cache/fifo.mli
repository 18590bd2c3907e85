(** First-in-first-out replacement: evicts in arrival order; accesses do
    not reorder anything. A baseline that isolates the value of recency. *)

module Core : Policy.UNIT
(** The unit-weight policy. *)

include Policy.S with type t = Core.t Lift.t
