type member_position = Tail | Head

type t = {
  group_size : int;
  successor_capacity : int;
  metadata_policy : Agg_successor.Successor_list.policy;
  member_position : member_position;
  cache_kind : Agg_cache.Cache.kind;
}

let default =
  {
    group_size = 5;
    successor_capacity = 8;
    metadata_policy = Agg_successor.Successor_list.Recency;
    member_position = Tail;
    cache_kind = Agg_cache.Cache.Lru;
  }

let validate t =
  if t.group_size <= 0 then invalid_arg "Config: group_size must be positive";
  if t.successor_capacity <= 0 then invalid_arg "Config: successor_capacity must be positive"

let with_group_size group_size t =
  let t = { t with group_size } in
  validate t;
  t
