(** Fault and resilience accounting, threaded through the system
    simulators' results so every run can say how hostile its network was
    and what the resilience layer did about it. *)

type t = {
  mutable lost_messages : int;  (** attempts timed out to message loss *)
  mutable outage_denials : int;  (** attempts timed out to a server outage *)
  mutable timeouts : int;  (** all timed-out attempts ([lost_messages + outage_denials]) *)
  mutable retries : int;  (** attempts re-issued after a timeout *)
  mutable degraded_fetches : int;
      (** fetches that exhausted their retries and fell back to the
          single-file demand path (speculative members dropped) *)
  mutable slowed_fetches : int;  (** successful attempts served over a degraded link *)
  mutable crashes : int;  (** client crash/restarts (cache wiped) *)
}

val create : unit -> t
(** All counters zero. *)

val copy : t -> t

val total_faults : t -> int
(** [timeouts + slowed_fetches + crashes] — injected faults that reached
    the simulation, for quick "did anything fire?" assertions. *)

val equal : t -> t -> bool
