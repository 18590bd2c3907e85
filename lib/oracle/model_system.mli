(** Brute-force reference replay of the paper's aggregating
    configurations: the client cache of Fig. 3 ({!Agg_core.Client_cache})
    and the two-level client + server path of Fig. 4
    ({!Agg_core.Server_cache}), rebuilt from {!Model_cache} and
    {!Model_successor} with the group construction and block insertion
    restated in the simplest possible terms. Step-for-step the models
    produce the same hit/miss outcomes, resident sets, and metrics
    (demand fetches included) as the optimized implementations. *)

val build_group : successors:(int -> int list) -> group_size:int -> int -> int list
(** [build_group ~successors ~group_size file] is the retrieval group
    {!Agg_core.Group_builder.build} must return, restated over plain
    lists: [successors f] is [f]'s ranked successor list. Immediate
    successors for groups of up to three, transitive most-likely chaining
    with fallback beyond.
    @raise Invalid_argument when [group_size <= 0]. *)

(** Reference successor tracker ({!Agg_successor.Tracker}): one
    {!Model_successor} list per file in an association list, and one
    "previous file" context per client id when [per_client] is set (a
    single shared context otherwise). *)
module Tracker : sig
  type t

  val create :
    ?per_client:bool -> capacity:int -> policy:Agg_successor.Successor_list.policy -> unit -> t
  (** @raise Invalid_argument on the first observation that creates a
      list when [capacity <= 0]. *)

  val observe : t -> ?client:int -> int -> unit
  (** Record the next file of [client]'s stream (default client 0). *)

  val successors : t -> int -> int list
  (** Ranked most-likely first; empty for files that never preceded
      another. *)

  val tracked_files : t -> int
  (** Files with a non-empty successor list. *)

  val reset_context : t -> unit
  (** Forget every previous-file context, keeping the lists. *)
end

(** Reference aggregating client (Fig. 3). *)
module Client : sig
  type t

  val create : ?config:Agg_core.Config.t -> capacity:int -> unit -> t
  val access : t -> int -> bool
  (** [true] on a cache hit, mirroring {!Agg_core.Client_cache.access}. *)

  val contents : t -> int list
  val metrics : t -> Agg_core.Metrics.client
end

(** Reference two-level system (Fig. 4): an intervening client cache in
    front of a plain or aggregating server cache. *)
module Server : sig
  type t

  val create :
    ?cooperative:bool ->
    filter_kind:Agg_cache.Cache.kind ->
    filter_capacity:int ->
    server_capacity:int ->
    scheme:Agg_core.Server_cache.scheme ->
    unit ->
    t

  val access : t -> int -> Agg_core.Server_cache.outcome
  val metrics : t -> Agg_core.Metrics.server
  val run : t -> Agg_trace.Trace.t -> Agg_core.Metrics.server
end
