module Cache = Agg_cache.Cache

type scheme = Client_cache.scheme = Plain of Cache.kind | Aggregating of Config.t

type t = {
  cooperative : bool;
  filter : Cache.t; (* the intervening client cache, keyed by [server]'s keys *)
  server : Client_cache.t; (* its misses are the server's accesses *)
}

let create ?(cooperative = false) ?obs ~filter_kind ~filter_capacity ~server_capacity ~scheme () =
  let server = Client_cache.of_scheme ?obs scheme ~capacity:server_capacity in
  { cooperative; filter = Cache.create filter_kind ~capacity:filter_capacity; server }

type outcome = Client_hit | Server_hit | Server_miss

let access t file =
  (* One interning serves both levels: the filter is keyed by the
     engine's dense keys too. *)
  let k = Client_cache.intern t.server file in
  (* Cooperative clients piggy-back every access to the server's metadata,
     even the ones their own cache absorbs; otherwise the server learns
     from what it can see, the misses. *)
  if t.cooperative then Client_cache.observe t.server k;
  if Cache.access t.filter (k :> int) then Client_hit
  else begin
    if not t.cooperative then Client_cache.observe t.server k;
    if Client_cache.fetch t.server k then Server_hit else Server_miss
  end

let metrics t =
  let m = Client_cache.metrics t.server in
  {
    (* every access reaches the filter, which counts it *)
    Metrics.client_accesses = (Cache.stats t.filter).Cache.accesses;
    server_requests = m.accesses;
    server_hits = m.hits;
    store_fetches = m.demand_fetches + m.prefetch.issued;
    prefetch = m.prefetch;
  }

let run t trace =
  for i = 0 to Agg_trace.Trace.length trace - 1 do
    ignore (access t (Agg_trace.Trace.file trace i))
  done;
  metrics t

let run_files t files =
  Array.iter (fun file -> ignore (access t file)) files;
  metrics t
