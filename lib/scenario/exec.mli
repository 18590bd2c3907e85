(** The scenario executor: loads the workload, runs every policy cell of
    the matrix through the shared {!Agg_util.Pool}, and checks every
    declared invariant, expectation and slo rule.

    Cells and checks render to a canonical text form ({!render_outcome})
    whose bytes are a pure function of the scenario — independent of
    [jobs], wall clock and sweep layout — so jobs-determinism is itself
    checkable by string comparison. *)

type cell = {
  policy : Scenario.policy;
  metrics : (string * float) list;
      (** canonical metric names in one fixed order, the same for every
          topology; integer counters are stored as exact floats *)
  series : Agg_obs.Series.t option;
      (** the cell's windowed telemetry, recorded only when the scenario
          declares slo rules (the window is the rules' shared window);
          excluded from {!render_outcome} so renders stay byte-identical
          to an slo-free scenario's *)
}

val metric : cell -> string -> float option
(** Look up one metric by name. *)

type check = {
  check_name : string;  (** invariant name or expectation line *)
  pass : bool;
  detail : string;  (** one-line evidence: the compared numbers *)
}

type outcome = {
  scenario : Scenario.t;
  events : int;  (** events actually replayed (after any cap) *)
  cells : cell list;  (** one per matrix policy, in matrix order *)
  checks : check list;  (** invariants first, then expectations, then slos *)
  pass : bool;  (** every check passed *)
  ok : bool;
      (** the corpus verdict: [pass] normally, [not pass] for a
          scenario marked [expect violation] *)
}

val run :
  ?jobs:int ->
  ?events_cap:int ->
  ?scope:Agg_obs.Scope.t ->
  Scenario.t ->
  (outcome, string) result
(** Executes the scenario. [jobs] sizes the domain pool (default 1);
    [events_cap] truncates the workload for fast CI runs; the [scope]'s
    profiler, when set, receives one span per cell (category
    ["scenario"]).

    [Error] covers everything a scenario file can get wrong at run time,
    each as a one-line message naming the offending input: an invalid
    scenario ({!Scenario.validate}), an unknown profile name, or a
    missing/corrupt trace file ({!Agg_trace.Codec.Parse_error} is
    reported as [path: line N: message]). *)

val render_outcome : outcome -> string
(** Canonical report: scenario name, events, every cell (as [cell
    policy=<name>] followed by indented [<metric>=<value>] lines;
    integers print without a decimal point), every check and the final
    verdict. Byte-identical for any [jobs] value. *)
