(** Shared shapes for experiment results: labelled data series grouped
    into panels, mirroring the paper's figures, plus rendering to text
    tables. *)

type series = { label : string; points : (float * float) list }

type panel = {
  name : string;  (** e.g. the workload of a sub-figure *)
  x_label : string;
  y_label : string;
  series : series list;
}

type figure = { id : string; title : string; panels : panel list }

type settings = { events : int; seed : int; jobs : int }
(** [events]: trace length; [seed]: generator seed; [jobs]: number of
    domains used to evaluate independent sweep cells ([1] = fully
    sequential). Every run measures from cold, as the paper's absolute
    fetch counts do. Results are independent of [jobs] — see
    {!Agg_util.Pool}. *)

val default_settings : settings
(** 60k events, seed 7, [jobs = Agg_util.Pool.default_jobs ()]. *)

val quick_settings : settings
(** A small configuration for tests: 6k events. *)

(** One value describing {e how} a sweep is evaluated — settings,
    parallelism and one {!Agg_obs.Scope} holding every instrument — so
    every figure exposes the same [run : Runner.t -> figure] (and
    [panel : runner:Runner.t -> ...]) entry point instead of its own
    combination of optional arguments. *)
module Runner : sig
  type nonrec t = {
    settings : settings;
    scope : Agg_obs.Scope.t option;
        (** the sweep's observability — profiler and per-cell sinks
            (the scope's [sink_for] is keyed by the cell's span label,
            e.g. ["fig3/server/g5/c300"]; because each cell owns its
            sink, event sequences are identical for any [settings.jobs]
            — supply a distinct sink per label when running with several
            domains). [None] (the default) is telemetry off. *)
  }

  val create : ?jobs:int -> ?scope:Agg_obs.Scope.t -> ?settings:settings -> unit -> t
  (** [create ()] is {!default_settings} with no scope; [jobs], when
      given, overrides [settings.jobs]. *)

  val profiler : t -> Agg_obs.Span.recorder option
  (** The scope's span recorder, if any — each sweep cell is timed as
      one {!Agg_obs.Span} when set. *)

  val sink : t -> string -> Agg_obs.Sink.t
  (** [sink t label] is the sink for the cell labelled [label]
      ({!Agg_obs.Sink.noop} when the scope sets no sinks). *)
end

val grid :
  ?profiler:Agg_obs.Span.recorder ->
  ?span_label:('r -> 'c -> string) ->
  settings:settings ->
  rows:'r list ->
  cols:'c list ->
  ('r -> 'c -> 'y) ->
  ('r * ('c * 'y) list) list
(** [grid ~settings ~rows ~cols f] evaluates every [(row, col)] cell of a
    sweep through {!Agg_util.Pool.map} with [settings.jobs] domains and
    returns the results regrouped by row, in input order. [f] must be
    safe to run concurrently with itself (share only immutable data,
    e.g. traces from {!Trace_store}).

    When [profiler] is given, each cell evaluation is wall-clock timed as
    one {!Agg_obs.Span} named by [span_label] (default ["cell"]), tagged
    with the evaluating domain — exportable as a Chrome trace via
    {!Agg_obs.Span.write_chrome}. Timing never affects results. *)

val series_value : series -> float -> float option
(** [series_value s x] is the y at exactly [x], if present. *)

val panel_table : figure_id:string -> panel -> Agg_util.Table.t
(** One row per x value, one column per series. *)

val render_figure : figure -> string
val print_figure : figure -> unit
