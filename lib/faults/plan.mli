(** Deterministic fault plans for the distributed path.

    A plan answers "does this fault fire here?" questions for the four
    fault classes the resilience layer models:

    - {e message loss} — a request/response pair vanishes and the client
      times out;
    - {e server outages} — windows of accesses during which the server
      answers nothing;
    - {e slow links} — an attempt's latency is multiplied by a
      configurable factor;
    - {e client crashes} — a client restarts, losing its cache contents
      (the server-side successor metadata survives, §3 of the paper).

    Every decision is a {e pure function} of the plan seed and the query
    coordinates (access time, retry attempt, client id): plans keep no
    mutable state, so decisions do not depend on query order, on how many
    sweep cells share a domain, or on the [--jobs] value. Internally each
    query is the first draw of an {!Agg_util.Prng} generator seeded from
    the mixed coordinates, computed by {!Agg_util.Prng.first_draw} without
    building the generator, so a query allocates nothing — all randomness
    flows through [Agg_util.Prng], as everywhere else in this
    repository.

    Time is measured in {e accesses}, the simulator's only clock. *)

type config = {
  seed : int;  (** independent of the workload seed *)
  loss_rate : float;  (** P(one request/response attempt is lost), in [0,1] *)
  outage_period : int;
      (** accesses per outage epoch; [0] disables outages entirely *)
  outage_rate : float;  (** P(an epoch opens with the server down), in [0,1] *)
  outage_length : int;
      (** accesses the server stays down at the start of a faulty epoch;
          capped at [outage_period] *)
  slow_rate : float;  (** P(an attempt rides a degraded link), in [0,1] *)
  slow_multiplier : float;  (** latency factor for slowed attempts, >= 1 *)
  crash_rate : float;  (** per-access P(the issuing client crashes), in [0,1] *)
}

val none : config
(** All rates zero: a plan made from [none] injects nothing. *)

val default : config
(** A mildly hostile network: seed 11, 10% message loss, 2000-access
    epochs with a 10% chance of a 200-access outage, 5% slow links at 4x,
    no crashes. *)

val validate : config -> unit
(** @raise Invalid_argument on rates outside [0,1], a negative
    [outage_period]/[outage_length], or [slow_multiplier < 1]. *)

type t

val make : config -> t
(** [make config] validates [config] and builds a plan. A config whose
    rates are all zero yields a plan with [enabled = false], so the
    simulators take their no-faults fast path. *)

val enabled : t -> bool
(** [false] iff the plan can never inject a fault. Simulators must guard
    their fault checks with this so a disabled plan leaves the no-faults
    code path (and its outputs) byte-identical. *)

val config : t -> config

val message_lost : t -> time:int -> attempt:int -> bool
(** Does the fetch attempt number [attempt] (0-based) issued at access
    [time] lose its request or response? *)

val server_down : t -> time:int -> bool
(** Is the server inside an outage window at access [time]? *)

val latency_multiplier : t -> time:int -> attempt:int -> float
(** [slow_multiplier] when the attempt rides a degraded link, [1.0]
    otherwise. Independent of {!message_lost} for the same coordinates. *)

val client_crashes : t -> time:int -> client:int -> bool
(** Does [client] crash (and restart with an empty cache) just before
    its access at [time]? *)
