(** Most-recently-used replacement: evicts the key touched most recently.
    Pathological for temporal locality but strong on cyclic scans; kept as
    a contrast baseline. *)

module Core : Policy.UNIT
(** The unit-weight policy. *)

include Policy.S with type t = Core.t Lift.t
