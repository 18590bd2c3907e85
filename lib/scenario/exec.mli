(** The scenario executor: loads the workload, runs every cell — each
    policy of the matrix at each point of the sweep — through the shared
    {!Agg_util.Pool}, and checks every declared invariant, expectation
    and slo rule over all of them.

    Cells and checks render to a canonical text form ({!render_outcome})
    whose bytes are a pure function of the scenario — independent of
    [jobs], wall clock and sweep layout — so jobs-determinism is itself
    checkable by string comparison. *)

type cell = {
  policy : Scenario.policy;
  point : Scenario.point;  (** the cell's sweep coordinates; [[]] without a sweep *)
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

val cell_label : cell -> string
(** ["policy=lru"], or ["policy=lru loss=0.1"] for a swept cell. *)

val value_str : float -> string
(** A metric as the render prints it: integers without a decimal point,
    other values in the shortest form that reads back exactly. *)

type check = {
  check_name : string;  (** invariant name or expectation line *)
  pass : bool;
  detail : string;  (** one-line evidence: the compared numbers *)
}

type outcome = {
  scenario : Scenario.t;
  events : int;  (** events actually replayed (after any cap) *)
  cells : cell list;
      (** one per matrix policy and sweep point, policy-major in matrix
          order, then in {!Scenario.points} order *)
  checks : check list;
      (** invariants first, then expectations, then slos. Each holds over
          every cell it concerns: [conservation] and
          [every_request_served] over all cells, [belady_bound] and
          [g1_equals_lru] at every point, an expectation or slo over
          every cell of its policy. A failing detail names the point. *)
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
    <label>] ({!cell_label}) followed by indented [<metric>=<value>]
    lines ({!value_str})), then {!render_checks}. Byte-identical for any
    [jobs] value. *)

val render_checks : outcome -> string
(** Every check as [check <name> pass|FAIL (<detail>)], then the
    [verdict] line. *)
