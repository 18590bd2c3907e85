(** Corpus driver for the declarative scenarios of {!Agg_scenario}: load
    [*.scn] files (a directory's, by {!corpus_files}), execute each through an
    {!Experiment.Runner} (its [jobs] sizes the pool, its profiler times
    each cell), and render the results as a table and as the
    [BENCH_scenarios.json] document. A swept scenario renders as one
    {!table} and one {!json_of_outcome} ledger. *)

type entry = {
  file : string;  (** path of the [.scn] file *)
  outcome : (Agg_scenario.Exec.outcome, string) result;
      (** the executed scenario, or the load/run error *)
}

val corpus_files : string -> string list
(** The [*.scn] files directly inside a directory, sorted by name.
    @raise Sys_error when the directory cannot be read. *)

val run_corpus :
  ?events_cap:int -> runner:Experiment.Runner.t -> string list -> entry list
(** Loads and executes each scenario file, in order. Files that fail to
    parse or run become [Error] entries rather than exceptions, so one
    corrupt file cannot hide the rest of the corpus. *)

val all_ok : entry list -> bool
(** Every entry executed and met its verdict ([Exec.outcome.ok]):
    healthy scenarios passed all checks, [expect violation] scenarios
    failed at least one. *)

val render : entry list -> string
(** One line per entry: verdict, name, events, check summary. *)

val json_of_entries : entry list -> Agg_util.Json.t
(** The [BENCH_scenarios.json] document: per scenario its verdict,
    per-cell hit rates (a swept cell with its point) and every check with
    its detail. *)

val json_of_outcome : Agg_scenario.Exec.outcome -> Agg_util.Json.t
(** One scenario's ledger ([BENCH_faults.json], [BENCH_cluster.json]):
    its name, events and verdict, every cell with its policy, point and
    every metric as {!Agg_scenario.Exec.render_outcome} prints it, and
    every check with its detail. *)

val table : Agg_scenario.Exec.outcome -> Agg_util.Table.t
(** One row per cell: its policy and point, then its hit rate (%),
    mean and p95 latency (ms), server requests, files sent, server hits,
    store fetches, invalidations, routed fetches, failovers, timeouts,
    retries and degraded fetches. *)
