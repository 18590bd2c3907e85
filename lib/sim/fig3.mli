(** Fig. 3 — client-side aggregating cache: demand fetches as a function
    of cache capacity, one series per group size (g = 1 is plain LRU). *)

val panel :
  ?capacities:int list ->
  ?group_sizes:int list ->
  runner:Experiment.Runner.t ->
  Agg_workload.Profile.t ->
  Experiment.panel
(** Demand-fetch counts for one workload. The same generated trace is
    replayed through every (capacity, group size) configuration; by
    default capacities 100–800 step 100, as plotted in the paper, and
    group sizes 1, 2, 3, 5, 7 and 10. Each
    sweep cell is profiled and sinked through the runner's scope under
    its span label ["fig3/<workload>/g<G>/c<C>"]. *)

val run : Experiment.Runner.t -> Experiment.figure
(** Both paper panels — [server] (3a) and [write] (3b) — under the
    runner's settings and scope (cells keyed by span label
    ["fig3/<workload>/g<G>/c<C>"]). *)
