(** The weighted-caching sweep: size/cost-aware baselines against the
    aggregating cache on the size/cost-skewed profiles
    ({!Agg_workload.Profile.sized}).

    Four policies are replayed over the same trace per profile —
    ["lru"] (size-aware LRU through the facade), ["landlord"] (Young's
    rent-based algorithm), ["bundle"] (Landlord serving whole predicted
    retrieval groups as one bundle) and ["g5"] (the paper's aggregating
    client, group size 5) — and judged on byte-weighted hit rate and
    total retrieval cost, the two metrics that only exist once files
    stop being unit-sized. *)

val default_verdict_capacity : int
(** 1000 size units — the mid-sweep point {!verdicts} reads. *)

val policies : string list
(** [["lru"; "landlord"; "bundle"; "g5"]], the row order of every sweep. *)

type cell = {
  policy : string;
  profile : string;
  capacity : int;  (** in size units *)
  byte_hit_rate : float;  (** bytes hit / bytes accessed *)
  cost_saved_rate : float;
      (** retrieval cost avoided by hits: [(Σ cost over accesses −
          cost_fetched) / Σ cost over accesses]; prefetch spend is
          deliberately excluded (it shows in [total_cost]) *)
  total_cost : int;  (** cost fetched + cost prefetched *)
}

val sweep : ?capacities:int list -> Experiment.Runner.t -> cell list
(** Every (policy, capacity) cell for both sized profiles, rows in
    {!policies} order. The default capacities are 250–4000 size units
    (sizes are Pareto up to 64/128 per file, so these bracket roughly the
    same resident-file counts as the unweighted figures' 100–800). Cells
    are evaluated through the runner's pool and scope under span labels
    ["weighted/<profile>/<policy>/c<C>"]. *)

val figure : cell list -> Experiment.figure
(** The cells of a {!sweep} as a figure: per sized profile, one
    byte-weighted hit-rate panel and one total-retrieval-cost panel
    (fig3-shaped — policy series vs capacity). *)

type verdict = {
  v_profile : string;
  v_capacity : int;
  g5_cost : int;  (** the aggregating client's total retrieval cost *)
  landlord_cost : int;
  g5_wins : bool;  (** [g5_cost < landlord_cost] *)
}

val verdicts : cell list -> verdict list
(** The headline question per sized profile — does the paper's g = 5
    aggregating cache still beat cost-aware Landlord on total retrieval
    cost once sizes and costs are skewed? — read off the cells of a
    {!sweep} at {!default_verdict_capacity}. A profile whose cells lack
    that capacity has no verdict. *)

val json_of_cells : cell list -> Agg_util.Json.t
(** The [BENCH_weighted.json] document: every cell of a {!sweep} and
    its {!verdicts}. *)
