(** Ablations of the design choices DESIGN.md calls out (beyond the
    paper's own figures). Each returns a panel in the same shape as the
    figure experiments. *)

val member_position :
  ?settings:Experiment.settings -> ?capacities:int list -> Agg_workload.Profile.t -> Experiment.panel
(** A1 — §3's claim that exact placement of group members matters little
    when the cache is several times the group size: demand fetches with
    members inserted at the LRU tail vs at the MRU head, g = 5. *)

val metadata_policy :
  ?settings:Experiment.settings -> ?capacities:int list -> Agg_workload.Profile.t -> Experiment.panel
(** A2 — end-to-end effect of managing successor lists by recency vs
    frequency (the Fig. 5 comparison carried into actual cache
    performance). *)

val successor_capacity :
  ?settings:Experiment.settings -> ?capacities:int list -> Agg_workload.Profile.t -> Experiment.panel
(** A3 — demand fetches as a function of the per-file metadata budget
    (successor-list capacity), g = 5, cache capacity 300. *)

val baselines :
  ?settings:Experiment.settings -> ?capacities:int list -> Agg_workload.Profile.t -> Experiment.panel
(** A4 — aggregating cache vs the related-work prefetchers: plain LRU,
    g5 aggregation, and Griffioen–Appleton probability-graph prefetching
    at two thresholds. Metric: demand fetches. *)

val cooperative :
  ?settings:Experiment.settings -> ?filter_capacities:int list -> Agg_workload.Profile.t -> Experiment.panel
(** A5 — server-side aggregation with and without client cooperation
    (piggy-backed full statistics vs miss-stream-only metadata, §3/§4.3). *)

val second_level_policies :
  ?settings:Experiment.settings -> ?filter_capacities:int list -> Agg_workload.Profile.t -> Experiment.panel
(** A6 — the aggregating server cache against the stronger second-level
    replacement policies from the literature: MQ (Zhou et al. 2001, the
    related-work answer to intervening caches), Segmented LRU, and 2Q,
    plus the paper's LRU/LFU baselines. Better replacement alone cannot
    recover the locality the filter absorbed; grouping can. *)

val placement : ?settings:Experiment.settings -> Agg_workload.Profile.t -> Agg_util.Table.t
(** A8 — grouping for data placement (§2.1 / future work): lay files out
    on a linear device using each {!Agg_placement.Layout} strategy
    trained on the first half of the trace, then replay the second half
    and compare mean head travel. Group layouts exploit succession runs;
    organ-pipe is the independence-assumption optimum; replication of
    shared files trades space for locality. *)

val sequence_model : ?settings:Experiment.settings -> ?lengths:int list -> unit -> Agg_util.Table.t
(** A7 — the Fig. 6 model made executable: track successor *sequences* of
    length 1–8 and measure, per workload, how often the predicted symbol
    matches in full and how often at least the immediate successor is
    right. Single-file successors dominate both columns — the decision
    §4.5 justifies via entropy, confirmed at the predictor level. *)

val overlap_vs_partition :
  ?settings:Experiment.settings -> ?group_size:int -> Agg_workload.Profile.t -> Agg_util.Table.t
(** A10 — §2.1's central structural claim: overlapping groups versus a
    disjoint partition. Groups are built from the first half of the
    trace; the second half replays through a client cache that fetches a
    file's *static* group on each miss — anchored (overlapping) groups,
    the unique partition group, or the live chained groups of the
    aggregating cache, against plain LRU. A shared utility file dragged
    into a single partition group mispredicts for every other working
    set that reads it. *)

val adaptive_group : ?settings:Experiment.settings -> unit -> Agg_util.Table.t
(** A9 — adaptive group sizing (future work, "groups of arbitrary size"):
    per workload, demand fetches and speculative fetches issued for fixed
    g ∈ {1, 5, 10} versus the feedback controller of
    {!Agg_core.Adaptive_client}. The controller should approach the best
    fixed size's fetch count on predictable workloads while issuing far
    less speculation on noisy ones. *)

val predictor_accuracy : ?settings:Experiment.settings -> unit -> Agg_util.Table.t
(** Last-successor vs first-order-Markov next-access accuracy on all four
    workloads — the §4.4 recency/frequency argument at the predictor
    level. *)

val all : settings:Experiment.settings -> (string * (unit -> Agg_util.Table.t list)) list
(** Every ablation, A1–A11 then predictor accuracy, each with its title
    and its tables, computed when the thunk is called: the one list both
    drivers print. A1–A6 and A11 run on the [server] workload, A10 on
    [server] and [workstation]. A11, reached only through this list, is
    the Fig. 4 experiment swept over server group sizes 2–10. *)
