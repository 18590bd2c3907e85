(** Fig. 5 — metadata maintenance: the probability that a per-file
    successor list fails to contain the successor about to be observed,
    as a function of list capacity, for LRU and LFU list replacement and
    the all-knowing oracle. Lists are consulted *before* they learn the
    event; the average is over every access that has a predecessor, which
    weights each file by its access frequency exactly as Eq. 2 does. *)

val panel :
  ?capacities:int list ->
  runner:Experiment.Runner.t ->
  Agg_workload.Profile.t ->
  Experiment.panel
(** Miss probabilities for one workload, by default at list capacities
    1–10. Each sweep cell is profiled
    and sinked through the runner's scope under its span label
    ["fig5/<workload>/<policy>/k<C>"] (policy is "lru"/"lfu"). *)

val run : Experiment.Runner.t -> Experiment.figure
(** The paper's panels — [workstation] (5a) and [server] (5b) — under
    the runner's settings and scope (cells keyed by span label
    ["fig5/<workload>/<policy>/k<C>"]). *)

val miss_probability :
  ?obs:Agg_obs.Sink.t ->
  policy:Agg_successor.Successor_list.policy ->
  capacity:int ->
  Agg_trace.File_id.t array ->
  float
(** The probability plotted for one (policy, capacity) point. When [obs]
    is an enabled sink, one [Successor_update] event is emitted per
    observed adjacency (every access with a predecessor). *)

val oracle_miss_probability : Agg_trace.File_id.t array -> float
