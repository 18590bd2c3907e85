(** The one way a cache level is configured across the system layer.

    The system simulator ([Agg_cluster.Cluster], whose one-node ring is
    the paper's Fig. 2 path and fleet) and the sweeps built on it place
    either a plain demand cache or an aggregating (group-fetching) cache
    at each level. A single shared type keeps the configurations
    identical everywhere and lets sweeps treat "scheme" as an axis. *)

type t =
  | Plain of Agg_cache.Cache.kind
      (** demand caching only, with the given replacement policy *)
  | Aggregating of Agg_core.Config.t
      (** group retrieval per the paper's §3, with the given operating
          point (group size, metadata budget, cache kind) *)

val plain_lru : t
(** [Plain Lru] — the baseline everywhere. *)

val aggregating : ?group_size:int -> unit -> t
(** [Aggregating] at the paper's default operating point, optionally with
    a different group size.
    @raise Invalid_argument when [group_size] is not positive. *)

val deployments : (string * t * t) list
(** The paper's three named client/server configurations, as
    [(name, client, server)]: ["baseline"] is plain LRU at both levels,
    ["agg-client"] an aggregating g = 5 client over a plain server, and
    ["agg-both"] the same client over a g = 10 server that stages its own
    deeper groups as readahead. *)

val name : t -> string
(** A label for tables and series: the cache kind's name for [Plain]
    (e.g. ["lru"]), ["g<N>"] for [Aggregating]. *)

val cache_kind : t -> Agg_cache.Cache.kind
(** The replacement policy of the data cache at this level. *)

val group_config : t -> Agg_core.Config.t option
(** The aggregating operating point, or [None] for [Plain]. *)

val group_size : t -> int
(** Files fetched per demand miss: the config's group size for
    [Aggregating], [1] for [Plain]. *)

val validate : t -> unit
(** @raise Invalid_argument when an [Aggregating] config is invalid
    (see {!Agg_core.Config.validate}). *)

val pp : Format.formatter -> t -> unit
