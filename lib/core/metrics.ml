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

(* --- event-stream reconciliation ----------------------------------------- *)

(* [expected] is the digest's record with every field the metrics also
   count replaced by the metrics' value, so a field they do not count
   agrees by construction and the diff names exactly the drifted ones. *)
let reconcile ~accesses digest expected =
  let events = Agg_obs.Digest.counts digest in
  let mismatches =
    (if accesses = Agg_obs.Counter.accesses events then []
     else [ ("accesses", accesses, Agg_obs.Counter.accesses events) ])
    @ Agg_obs.Counter.diff (expected events) events
  in
  let line (field, m, e) = Printf.sprintf "%s: metrics %d vs events %d" field m e in
  match mismatches with [] -> Ok () | ms -> Error (String.concat "; " (List.map line ms))

let reconcile_client digest c =
  reconcile ~accesses:c.accesses digest (fun events ->
      {
        events with
        Agg_obs.Counter.demand_hits = c.hits;
        demand_misses = c.demand_fetches;
        prefetch_issued = c.prefetch.issued;
        prefetch_promoted = c.prefetch.used;
        evicted_unused = c.prefetch.evicted_unused;
        groups_built = c.demand_fetches;
      })

let reconcile_server digest s =
  reconcile ~accesses:s.server_requests digest (fun events ->
      {
        events with
        Agg_obs.Counter.demand_hits = s.server_hits;
        demand_misses = s.store_fetches - s.prefetch.issued;
        prefetch_issued = s.prefetch.issued;
        prefetch_promoted = s.prefetch.used;
        evicted_unused = s.prefetch.evicted_unused;
      })
