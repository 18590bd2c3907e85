(** The aggregating *server* cache behind an intervening client cache
    (paper §4.3, Fig. 4).

    The client runs a plain cache (LRU in the paper) of the given filter
    capacity; only its misses reach the server. The server cache is
    managed either by a plain policy (LRU/LFU, the baselines) or by the
    aggregating scheme: per-file successor metadata maintained from the
    stream the server actually observes, with group fetches from backing
    store on server misses.

    The server level is one {!Client_cache} engine at the server
    capacity ({!Client_cache.of_scheme}): a client miss is one engine
    access, and the server's hits, group fetches, prefetch accounting
    and events are the engine's.

    By default no cooperation is assumed — the server learns from the
    *filtered* miss stream only. [cooperative:true] models clients that
    piggy-back full access statistics (§3): every client access is fed
    to the engine's metadata ({!Client_cache.observe}) while data still
    moves only on client misses ({!Client_cache.fetch}). *)

type scheme = Client_cache.scheme =
  | Plain of Agg_cache.Cache.kind  (** baseline server cache *)
  | Aggregating of Config.t  (** group retrieval per the paper *)

type t

val create :
  ?cooperative:bool ->
  ?obs:Agg_obs.Sink.t ->
  filter_kind:Agg_cache.Cache.kind ->
  filter_capacity:int ->
  server_capacity:int ->
  scheme:scheme ->
  unit ->
  t
(** When [obs] is an enabled sink the *server-side* decisions are
    reported to it: [Demand_hit]/[Demand_miss] for each request reaching
    the server (announced before the server cache mutates),
    [Successor_update] for each adjacency the tracker learns (the filtered
    miss stream, or the full sequence when [cooperative]),
    [Prefetch_issued]/[Prefetch_promoted], [Group_built] per server miss
    and [Evicted] per physical server-cache eviction. Client filter hits
    emit nothing — the sink sees what the server sees. The default no-op
    sink adds one branch per request and allocates nothing. *)

type outcome = Client_hit | Server_hit | Server_miss

val access : t -> Agg_trace.File_id.t -> outcome
val run : t -> Agg_trace.Trace.t -> Metrics.server
(** Feeds the whole trace through {!access}; metrics accumulate. *)

val run_files : t -> Agg_trace.File_id.t array -> Metrics.server
(** [run_files t files] is {!run} over a bare file-id sequence — the
    simulation only consumes file ids, so sweeps that already hold the id
    array (see [Trace_store.files]) can skip materialising a trace. *)

val metrics : t -> Metrics.server
(** The engine's {!Metrics.client} seen from the server: its accesses
    are [server_requests], its hits [server_hits], and [store_fetches]
    is its demand fetches plus its issued prefetches. *)
