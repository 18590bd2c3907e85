(** Measurement records shared by the aggregating client and server
    simulations. *)

type prefetch = {
  issued : int;  (** speculative (group-member) insertions performed *)
  used : int;  (** speculative residents later hit by a demand access *)
  evicted_unused : int;  (** speculative residents observed evicted before use *)
}

val prefetch_utilisation : prefetch -> float
(** [used / issued]; [0.] before any prefetch. *)

type client = {
  accesses : int;
  hits : int;
  demand_fetches : int;  (** misses, i.e. requests sent to the remote server *)
  prefetch : prefetch;
}

val client_hit_rate : client -> float
val pp_client : Format.formatter -> client -> unit

type server = {
  client_accesses : int;  (** accesses offered to the client cache *)
  server_requests : int;  (** client misses, i.e. requests reaching the server *)
  server_hits : int;
  store_fetches : int;  (** files fetched from backing store (incl. group members) *)
  prefetch : prefetch;
}

val server_hit_rate : server -> float
(** Server hits over requests that reached the server — the Fig. 4 metric. *)

val pp_server : Format.formatter -> server -> unit

type weighted = Agg_cache.Cache.weighted_stats = {
  bytes_accessed : int;  (** Σ size over demand accesses *)
  bytes_hit : int;  (** Σ size over demand hits *)
  cost_fetched : int;  (** Σ cost over demand fetches *)
  cost_prefetched : int;  (** Σ cost over admitted speculative fetches *)
}
(** The weighted counters of one cache, re-exported so sweep code can
    speak in metrics vocabulary. Kept outside {!client}/{!server} (which
    the oracle compares structurally): at unit weights these mirror the
    unweighted counters and add no information. *)

val reconcile_client : Agg_obs.Digest.t -> client -> (unit, string) result
(** [reconcile_client digest c] checks that the record of a run's digest
    agrees exactly with its aggregate metrics — accesses, hits
    ([demand_hits]), demand fetches ([demand_misses], and
    [groups_built]: one group per miss), and the three prefetch counters
    ([prefetch_issued], [prefetch_promoted], [evicted_unused]) — and
    names every mismatching field otherwise ({!Agg_obs.Counter.diff}).
    The [aggsim trace] verb and the @obs CI gate fail on [Error]. *)

val reconcile_server : Agg_obs.Digest.t -> server -> (unit, string) result
(** Server-side counterpart: server requests (accesses), server hits
    ([demand_hits]), store fetches less issued prefetches
    ([demand_misses]) and the prefetch counters. *)
