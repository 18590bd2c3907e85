type t =
  | Plain of Agg_cache.Cache.kind
  | Aggregating of Agg_core.Config.t

let plain_lru = Plain Agg_cache.Cache.Lru

let aggregating ?group_size () =
  match group_size with
  | None -> Aggregating Agg_core.Config.default
  | Some g -> Aggregating (Agg_core.Config.with_group_size g Agg_core.Config.default)

let deployments =
  [
    ("baseline", plain_lru, plain_lru);
    ("agg-client", aggregating (), plain_lru);
    ("agg-both", aggregating (), aggregating ~group_size:10 ());
  ]

let name = function
  | Plain kind -> Agg_cache.Cache.kind_name kind
  | Aggregating c -> Printf.sprintf "g%d" c.Agg_core.Config.group_size

let cache_kind = function
  | Plain kind -> kind
  | Aggregating c -> c.Agg_core.Config.cache_kind

let group_config = function Plain _ -> None | Aggregating c -> Some c
let group_size = function Plain _ -> 1 | Aggregating c -> c.Agg_core.Config.group_size
let validate = function Plain _ -> () | Aggregating c -> Agg_core.Config.validate c

let pp ppf t =
  match t with
  | Plain _ -> Format.fprintf ppf "plain(%s)" (name t)
  | Aggregating c -> Format.fprintf ppf "aggregating(%a)" Agg_core.Config.pp c
