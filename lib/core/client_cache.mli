(** The aggregating *client* cache (paper §3, evaluated in §4.2 / Fig. 3).

    The client interacts with the local file-system interface normally; a
    miss triggers a *group retrieval* from the server instead of a
    single-file demand fetch. The requested file enters the cache at the
    MRU head; the speculative group members are appended at the LRU tail
    so unconfirmed predictions never displace hot data from the top of the
    stack. Relationship metadata is maintained from the full access
    sequence (statistics piggy-backed to the server). With
    [group_size = 1] this degenerates to a plain demand cache of the
    configured kind — LRU by default — which is the paper's baseline.

    The same engine is the server level of {!Server_cache} (§4.3), where
    it also runs as a plain demand cache ({!of_scheme}).

    The engine gives each file a dense {!key} in order of first sight
    ({!intern}) and keys its cache, successor metadata and prefetch
    bookkeeping by it, so a run's tables hold one slot per file it
    touches however sparse the ids; every event still reports the file
    id. *)

type scheme =
  | Plain of Agg_cache.Cache.kind
      (** demand caching only, with the given replacement policy *)
  | Aggregating of Config.t
      (** group retrieval per §3, with the given operating point (group
          size, metadata budget, cache kind) *)
(** How one cache level is managed; re-exported as
    {!Server_cache.scheme} and [Agg_system.Scheme.t]. *)

type t

type key = Agg_trace.File_id.Dense.key
(** A file's dense key in one engine (a private int): {!observe} and
    {!fetch} take one, so a raw file id cannot reach a keyed table. *)

val create :
  ?config:Config.t ->
  ?obs:Agg_obs.Sink.t ->
  ?weight_of:(Agg_trace.File_id.t -> Agg_cache.Policy.weight) ->
  capacity:int ->
  unit ->
  t
(** @raise Invalid_argument on invalid capacity or configuration.

    When [obs] is an enabled sink the client reports every decision to it:
    [Successor_update] for each observed adjacency, [Demand_hit]/[Demand_miss]
    (announced before the cache mutates, so the eviction events a miss
    triggers follow their cause), [Prefetch_issued]/[Prefetch_promoted],
    [Group_built] per miss and [Evicted] per physical eviction. The default
    no-op sink adds a few branches per access and allocates nothing.
    [weight_of] is asked about file ids. *)

val of_scheme : ?obs:Agg_obs.Sink.t -> scheme -> capacity:int -> t
(** [of_scheme (Aggregating config)] is [create ~config].
    [of_scheme (Plain kind)] is a demand cache of [kind] (its {!config}
    is the default with [group_size = 1] and [cache_kind = kind]): its
    {!observe} does nothing and its misses build no group, so it emits
    no [Successor_update] or [Group_built] and never prefetches.
    @raise Invalid_argument on invalid capacity or configuration. *)

val config : t -> Config.t
val capacity : t -> int

val group_size : t -> int
(** The group size currently in force (initially [config.group_size]). *)

val set_group_size : t -> int -> unit
(** Changes the group size on the fly — group construction is stateless
    beyond the successor lists, so the size can adapt per fetch (used by
    {!Adaptive_client}). @raise Invalid_argument when not positive. *)

val access : t -> Agg_trace.File_id.t -> bool
(** [access t file] simulates one demand access; [true] on a cache hit.
    On a miss, the group for [file] is fetched from the (simulated)
    server. It is [observe t k] followed by [fetch t k], where [k] is
    [intern t file].
    @raise Invalid_argument when [file] is negative. *)

val intern : t -> Agg_trace.File_id.t -> key
(** [intern t file] is [file]'s key in [t], giving it the next key on
    first sight. Interning alone changes no cache state, counter or
    event. @raise Invalid_argument when [file] is negative. *)

val observe : t -> key -> unit
(** [observe t k] feeds [k]'s file to the successor metadata (and
    reports the adjacency as a [Successor_update]) without touching the
    data cache or the counters; a no-op for a [Plain] level. *)

val fetch : t -> key -> bool
(** [fetch t k] is {!access} without the metadata observation: one
    demand access to the data cache, with the group fetch on a miss. A
    cooperative {!Server_cache} observes every client access but fetches
    only the client's misses. *)

val run : t -> Agg_trace.Trace.t -> Metrics.client
(** [run t trace] feeds every event of [trace] through {!access} and
    returns the accumulated metrics. Can be called repeatedly; metrics
    accumulate across calls. *)

val run_files : t -> Agg_trace.File_id.t array -> Metrics.client
(** [run_files t files] is {!run} over a bare file-id sequence — the
    client only consumes file ids, so sweeps that already hold the id
    array (see [Trace_store.files]) can skip materialising a trace. *)

val metrics : t -> Metrics.client

val weighted_metrics : t -> Metrics.weighted
(** The cache's size/cost counters (see {!Metrics.weighted}); unit-weight
    mirrors of the plain counters when no [weight_of] was given. *)

val resident : t -> Agg_trace.File_id.t -> bool
(** Is [file] in the data cache? [false] for a file never accessed. *)

val obs : t -> Agg_obs.Sink.t
(** The sink given at {!create} (the no-op sink by default). *)
