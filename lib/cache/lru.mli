(** Least-recently-used replacement: evicts the key untouched for longest.
    O(1) for every operation. *)

module Core : Policy.UNIT
(** The unit-weight policy. *)

include Policy.S with type t = Core.t Lift.t
