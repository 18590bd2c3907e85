(** Configuration of an aggregating cache (paper §3). The defaults are the
    paper's operating point: groups of five, eight-successor metadata lists
    managed by recency, speculative members inserted at the cold end. *)

type member_position =
  | Tail  (** append group members at the LRU end (the paper's choice) *)
  | Head  (** insert group members hot — ablation A1 *)

type t = {
  group_size : int;  (** files fetched per demand miss, including the requested one *)
  successor_capacity : int;  (** per-file successor-list capacity *)
  metadata_policy : Agg_successor.Successor_list.policy;
      (** replacement for the successor lists; [Recency] in the paper *)
  member_position : member_position;
  cache_kind : Agg_cache.Cache.kind;  (** replacement for the data cache itself *)
}

val default : t
(** group_size 5, successor_capacity 8, [Recency], [Tail], LRU. *)

val with_group_size : int -> t -> t
(** Functional update; @raise Invalid_argument when the size is not positive. *)

val validate : t -> unit
(** @raise Invalid_argument on non-positive sizes/capacities. *)
