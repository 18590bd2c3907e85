(** The resilience sweep: client hit rate and mean demand latency as the
    message-loss rate grows, for a plain LRU client versus an aggregating
    client (g = 5), over the Fig. 2 path ({!Agg_cluster.Cluster.path_config}:
    one client, one plain LRU server).

    The paper's claim extends naturally to hostile networks: the
    aggregating client makes {e fewer} round trips per access, so each
    injected loss costs it less — it retains a higher hit rate (its cache
    was filled by groups before the fault) and its latency grows more
    slowly. Loss rate [0.0] is the healthy network and matches the
    fault-free path byte-for-byte. *)

type point = {
  scheme : string;  (** series label, e.g. ["lru"] / ["g5"] *)
  loss_rate : float;
  hit_rate : float;  (** client hit rate, percent *)
  mean_latency : float;  (** mean demand latency, ms *)
  timeouts : int;
  retries : int;
  degraded_fetches : int;
}

val sweep :
  ?loss_rates:float list ->
  ?schemes:Agg_system.Scheme.t list ->
  ?profile:Agg_workload.Profile.t ->
  Experiment.Runner.t ->
  point list
(** One point per (scheme, loss rate) cell, evaluated through
    {!Experiment.grid} under the runner's settings (and profiler, spans
    named ["resilience/<workload>/<scheme>/p<loss>"]). By default it
    sweeps loss rates 0, 0.05, 0.1, 0.15, 0.2 and 0.3 for plain LRU and
    aggregating g = 5. Each cell builds
    its own fault plan from the loss rate alone (no outages, slow links
    or crashes), so results are deterministic for any [jobs] value.
    Default workload: [server]. *)

val hit_rate_advantage : loss_rate:float -> point list -> float option
(** [g5 hit rate - lru hit rate] at exactly [loss_rate], when both
    schemes are present in the sweep. *)

val figure : profile:Agg_workload.Profile.t -> point list -> Experiment.figure
(** The points of a {!sweep} over [profile] as a two-panel figure (hit
    rate and latency vs loss rate), rendered like every other figure. *)

val json_of_points : point list -> Agg_util.Json.t
(** The [BENCH_faults.json] document: every point, plus the headline
    ["g5_beats_lru_at_10pct_loss"] verdict. *)
