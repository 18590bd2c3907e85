type prefetch = { issued : int; used : int; evicted_unused : int }

let prefetch_utilisation p = Agg_util.Stats.ratio p.used p.issued

type client = { accesses : int; hits : int; demand_fetches : int; prefetch : prefetch }

let client_hit_rate c = Agg_util.Stats.ratio c.hits c.accesses

let pp_prefetch ppf p =
  Format.fprintf ppf "issued=%d used=%d (%.1f%%) evicted_unused=%d" p.issued p.used
    (100.0 *. prefetch_utilisation p)
    p.evicted_unused

let pp_client ppf c =
  Format.fprintf ppf "accesses=%d hits=%d (%.1f%%) demand_fetches=%d prefetch:[%a]" c.accesses
    c.hits
    (100.0 *. client_hit_rate c)
    c.demand_fetches pp_prefetch c.prefetch

type server = {
  client_accesses : int;
  server_requests : int;
  server_hits : int;
  store_fetches : int;
  prefetch : prefetch;
}

let server_hit_rate s = Agg_util.Stats.ratio s.server_hits s.server_requests

let pp_server ppf s =
  Format.fprintf ppf
    "client_accesses=%d server_requests=%d server_hits=%d (%.1f%%) store_fetches=%d prefetch:[%a]"
    s.client_accesses s.server_requests s.server_hits
    (100.0 *. server_hit_rate s)
    s.store_fetches pp_prefetch s.prefetch

type weighted = Agg_cache.Cache.weighted_stats = {
  bytes_accessed : int;
  bytes_hit : int;
  cost_fetched : int;
  cost_prefetched : int;
}

let byte_weighted_hit_rate w = Agg_util.Stats.ratio w.bytes_hit w.bytes_accessed
let total_retrieval_cost w = w.cost_fetched + w.cost_prefetched

(* --- event-stream reconciliation ----------------------------------------- *)

let check_all pairs =
  let mismatches =
    List.filter_map
      (fun (label, expected, actual) ->
        if expected = actual then None
        else Some (Printf.sprintf "%s: metrics %d vs events %d" label expected actual))
      pairs
  in
  match mismatches with [] -> Ok () | ms -> Error (String.concat "; " ms)

let reconcile_client digest c =
  check_all
    [
      ("accesses", c.accesses, Agg_obs.Digest.accesses digest);
      ("hits", c.hits, Agg_obs.Digest.demand_hits digest);
      ("demand_fetches", c.demand_fetches, Agg_obs.Digest.demand_misses digest);
      ("prefetch.issued", c.prefetch.issued, Agg_obs.Digest.prefetch_issued digest);
      ("prefetch.used", c.prefetch.used, Agg_obs.Digest.prefetch_promoted digest);
      ( "prefetch.evicted_unused",
        c.prefetch.evicted_unused,
        Agg_obs.Digest.evicted_unused digest );
      ("groups = demand_fetches", c.demand_fetches, Agg_obs.Digest.groups_built digest);
    ]

let reconcile_server digest s =
  check_all
    [
      ("server_requests", s.server_requests, Agg_obs.Digest.accesses digest);
      ("server_hits", s.server_hits, Agg_obs.Digest.demand_hits digest);
      ( "store_fetches",
        s.store_fetches,
        Agg_obs.Digest.demand_misses digest + Agg_obs.Digest.prefetch_issued digest );
      ("prefetch.issued", s.prefetch.issued, Agg_obs.Digest.prefetch_issued digest);
      ("prefetch.used", s.prefetch.used, Agg_obs.Digest.prefetch_promoted digest);
      ( "prefetch.evicted_unused",
        s.prefetch.evicted_unused,
        Agg_obs.Digest.evicted_unused digest );
    ]
