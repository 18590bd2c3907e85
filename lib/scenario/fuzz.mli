(** Scenario fuzzing: perturb a base scenario with {!Agg_util.Prng},
    execute it, and on an invariant violation greedily shrink to a
    minimal still-failing scenario (the {!Diff_engine} discipline:
    accept a reduction only when the violation persists, repeat the
    fixed transform order to a fixpoint).

    Shrinking order — each transform is attempted in turn, and the whole
    pass repeats until no transform applies:

    + drop sweep axes one at a time, then halve each axis's value list
      (keeping its first value and every value an ordering expectation
      names)
    + fault plan to {!Agg_faults.Plan.none}, then each rate to zero
    + drop the churn schedule
    + halve clients (floor 1), then nodes and replicas (cluster)
    + halve the event count (floor 100, profile workloads)
    + drop matrix policies one at a time (keeping at least one, and
      never orphaning an expectation or slo rule)
    + drop invariants, then expectations, then slo rules, one at a time

    Everything is a pure function of the seed: a fixed [seed] replays
    the same perturbations, violation and shrunk scenario. *)

val perturb : Agg_util.Prng.t -> Scenario.t -> Scenario.t
(** One random, validity-preserving mutation: reseed or resize a profile
    workload, scale a fault rate, resize the fleet, or grow/shrink the
    policy matrix. Expectation thresholds are never touched (loosening
    or tightening them would manufacture trivial violations), and no
    sweep axis is added. A mutation that {!Scenario.validate} rejects
    (it orphans an expectation, or moves a swept field off its axis's
    first value) leaves the scenario unchanged. *)

val violates : ?jobs:int -> ?events_cap:int -> Scenario.t -> bool
(** [true] when the scenario runs and at least one invariant,
    expectation or slo check fails. A scenario that cannot run at all
    (bad file, unknown profile) does not count as a violation. *)

val shrink : ?jobs:int -> ?events_cap:int -> Scenario.t -> Scenario.t
(** Greedy reduction of a violating scenario; returns the smallest
    still-violating scenario the transform order reaches. Returns the
    input unchanged when it does not violate. *)

type failure = {
  original : Scenario.t;  (** the perturbed scenario that first failed *)
  shrunk : Scenario.t;  (** its minimal form; still violating *)
}

type report = {
  rounds : int;  (** perturbation rounds requested *)
  tested : int;  (** scenarios actually executed *)
  failure : failure option;  (** the first violation found, shrunk *)
}

val run :
  ?jobs:int -> ?events_cap:int -> seed:int -> rounds:int -> Scenario.t -> report
(** Fuzz loop: perturb the base scenario [rounds] times (each round
    mutates the previous round's scenario, resetting to the base every
    8 rounds), executing each; stops at the first violation and shrinks
    it. The base scenario itself is tested first — a known-bad base
    reports itself, shrunk, without any perturbation. *)
