(** Fig. 4 — server cache hit rate under an intervening client LRU cache:
    one series per server scheme (aggregating g=5, LRU, LFU), plotted
    against the client ("filter") capacity, server capacity fixed. *)

val default_filter_capacities : int list
(** 50–500 step 50, as in the paper. *)

val paper_rows : (string * Agg_system.Scheme.t * bool) list
(** The paper's three server schemes, none cooperative: ["g5"]
    (aggregating at the default operating point), ["lru"] and ["lfu"]. *)

val panel :
  ?filter_capacities:int list ->
  runner:Experiment.Runner.t ->
  name:string ->
  (string * Agg_system.Scheme.t * bool) list ->
  Agg_workload.Profile.t ->
  Experiment.panel
(** [panel ~runner ~name rows profile] is the server hit rate (%) for
    one workload against the filter (client LRU) capacity, with the
    server at 300 files: the panel [name] with one
    series per [(label, scheme, cooperative)] row. Each sweep cell is
    profiled and sinked through the runner's scope under its span label
    ["fig4/<workload>/<label>/f<C>"]. The Fig. 4 panels and the
    server-side ablations (A5, A6, A11) are calls to it. *)

val run : Experiment.Runner.t -> Experiment.figure
(** The paper's three panels — [workstation] (4a), [users] (4b),
    [server] (4c) — under the runner's settings and scope (cells keyed
    by span label ["fig4/<workload>/<label>/f<C>"]) over {!paper_rows}. *)
