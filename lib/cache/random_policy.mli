(** Random replacement: evicts a uniformly random resident key. The
    no-information baseline; deterministic given the seed. *)

module Core : Policy.UNIT
(** The unit-weight policy. *)

include Policy.S with type t = Core.t Lift.t

val create_seeded : capacity:int -> seed:int -> t
(** Like {!create} but with an explicit PRNG seed. *)
