(** Fig. 8 — successor entropy of LRU-filtered miss streams: one series
    per intervening cache capacity. A tiny filter scrambles succession; a
    large one distils the stream down to highly ordered cold-start runs,
    *increasing* predictability — the effect that keeps the aggregating
    server cache useful when plain LRU fails. *)

val panel :
  ?filter_capacities:int list ->
  ?lengths:int list ->
  runner:Experiment.Runner.t ->
  Agg_workload.Profile.t ->
  Experiment.panel
(** One cell per filter capacity (by default the paper's 1, 10, 50,
    100, 500 and 1000), covering every length: the runner's
    scope profiles each as a span named ["fig8/<workload>/f<C>"] (no
    events are emitted). *)

val run : Experiment.Runner.t -> Experiment.figure
(** The paper's panels — [write] (8a) and [users] (8b) — under the
    runner's settings and scope (this figure emits no events, so the
    scope's sinks are unused). *)
