type t = {
  cache : Client_cache.t;
  min_group : int;
  max_group : int;
  window : int;
  raise_above : float;
  lower_below : float;
  mutable window_fetches : int;
  mutable issued_mark : int; (* counters at the start of the window *)
  mutable used_mark : int;
  mutable trajectory : (int * int) list; (* newest first *)
}

let create ?(config = Config.default) ?(obs = Agg_obs.Sink.noop) ?(min_group = 1)
    ?(max_group = 10) ?(window = 200) ?(raise_above = 0.55) ?(lower_below = 0.30) ~capacity () =
  if min_group <= 0 || max_group < min_group then
    invalid_arg "Adaptive_client.create: need 0 < min_group <= max_group";
  if window <= 0 then invalid_arg "Adaptive_client.create: window must be positive";
  let start = max min_group (min max_group config.Config.group_size) in
  let cache = Client_cache.create ~config ~obs ~capacity () in
  Client_cache.set_group_size cache start;
  {
    cache;
    min_group;
    max_group;
    window;
    raise_above;
    lower_below;
    window_fetches = 0;
    issued_mark = 0;
    used_mark = 0;
    trajectory = [];
  }

let current_group_size t = Client_cache.group_size t.cache

let adapt t =
  let m = Client_cache.metrics t.cache in
  let issued = m.Metrics.prefetch.Metrics.issued - t.issued_mark in
  let used = m.Metrics.prefetch.Metrics.used - t.used_mark in
  t.issued_mark <- m.Metrics.prefetch.Metrics.issued;
  t.used_mark <- m.Metrics.prefetch.Metrics.used;
  let g = current_group_size t in
  let utilisation = Agg_util.Stats.ratio used issued in
  let g' =
    (* with no speculation at all (g = 1 issues nothing) probe upward *)
    if issued = 0 then min t.max_group (g + 1)
    else if utilisation >= t.raise_above then min t.max_group (g + 1)
    else if utilisation < t.lower_below then max t.min_group (g - 1)
    else g
  in
  if g' <> g then begin
    Client_cache.set_group_size t.cache g';
    t.trajectory <- (m.Metrics.demand_fetches, g') :: t.trajectory
  end

let access t file =
  let hit = Client_cache.access t.cache file in
  if not hit then begin
    t.window_fetches <- t.window_fetches + 1;
    if t.window_fetches >= t.window then begin
      t.window_fetches <- 0;
      adapt t
    end
  end;
  hit

let metrics t = Client_cache.metrics t.cache

let run t trace =
  for i = 0 to Agg_trace.Trace.length trace - 1 do
    ignore (access t (Agg_trace.Trace.file trace i))
  done;
  metrics t

let trajectory t = List.rev t.trajectory
