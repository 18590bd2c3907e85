module Cache = Agg_cache.Cache
module Tracker = Agg_successor.Tracker
module Plan = Agg_faults.Plan
module Resilience = Agg_faults.Resilience
module Counters = Agg_faults.Counters

type deployment = [ `Baseline | `Aggregating_client | `Aggregating_both ]

let deployment_name = function
  | `Baseline -> "baseline"
  | `Aggregating_client -> "agg-client"
  | `Aggregating_both -> "agg-both"

type config = {
  cost : Cost_model.t;
  client_capacity : int;
  server_capacity : int;
  client : Scheme.t;
  server : Scheme.t;
  faults : Plan.config;
  resilience : Resilience.t;
  scope : Agg_obs.Scope.t option;
}

let default_config =
  {
    cost = Cost_model.lan;
    client_capacity = 300;
    server_capacity = 1000;
    client = Scheme.plain_lru;
    server = Scheme.plain_lru;
    faults = Plan.none;
    resilience = Resilience.default;
    scope = None;
  }

let with_deployment ?(group_size = 5) deployment config =
  match deployment with
  | `Baseline -> { config with client = Scheme.plain_lru; server = Scheme.plain_lru }
  | `Aggregating_client ->
      { config with client = Scheme.aggregating ~group_size (); server = Scheme.plain_lru }
  | `Aggregating_both ->
      {
        config with
        client = Scheme.aggregating ~group_size ();
        (* the server walks the successor chain twice as deep as the
           client's groups — cheap disk readahead staged into its cache *)
        server = Scheme.aggregating ~group_size:(2 * group_size) ();
      }

type result = {
  accesses : int;
  client_hits : int;
  server_hits : int;
  disk_reads : int;
  files_transferred : int;
  round_trips : int;
  mean_latency : float;
  p95_latency : float;
  p99_latency : float;
  faults : Counters.t;
}

type state = {
  config : config;
  plan : Plan.t;
  client : Cache.t;
  server : Cache.t;
  tracker : Tracker.t;
  latencies : float array;  (** one slot per trace access, filled in order *)
  counters : Counters.t;
  mutable client_hits : int;
  mutable server_hits : int;
  mutable disk_reads : int;
  mutable files_transferred : int;
  mutable round_trips : int;
  mutable now : int;  (** accesses replayed so far — the fault plan's clock *)
}

let validate config =
  if config.client_capacity <= 0 then
    invalid_arg
      (Printf.sprintf "Path.run: client_capacity must be positive (got %d)"
         config.client_capacity);
  if config.server_capacity <= 0 then
    invalid_arg
      (Printf.sprintf "Path.run: server_capacity must be positive (got %d)"
         config.server_capacity);
  Scheme.validate config.client;
  Scheme.validate config.server;
  Plan.validate config.faults;
  Resilience.validate config.resilience

let make_state config ~accesses =
  validate config;
  let metadata =
    match Scheme.group_config config.client with
    | Some c -> c
    | None -> (
        match Scheme.group_config config.server with
        | Some c -> c
        | None -> Agg_core.Config.default)
  in
  {
    config;
    plan = Plan.make config.faults;
    client = Cache.create (Scheme.cache_kind config.client) ~capacity:config.client_capacity;
    server = Cache.create (Scheme.cache_kind config.server) ~capacity:config.server_capacity;
    tracker =
      Tracker.create ~capacity:metadata.Agg_core.Config.successor_capacity
        ~policy:metadata.Agg_core.Config.metadata_policy ();
    latencies = Array.make accesses 0.0;
    counters = Counters.create ();
    client_hits = 0;
    server_hits = 0;
    disk_reads = 0;
    files_transferred = 0;
    round_trips = 0;
    now = 0;
  }

(* Serve group members at the server: anything absent comes off the disk
   and is staged cold into the server cache. *)
let stage_members st members =
  List.iter (fun m -> if not (Cache.mem st.server m) then st.disk_reads <- st.disk_reads + 1) members;
  ignore (Cache.insert_cold_group st.server members)

(* One completed remote round trip for [file]: server-side service,
   member staging and transfer. [members] is empty on the degraded path. *)
let complete_fetch st file members =
  st.round_trips <- st.round_trips + 1;
  let served_from_memory = Cache.access st.server file in
  if served_from_memory then st.server_hits <- st.server_hits + 1
  else st.disk_reads <- st.disk_reads + 1;
  st.files_transferred <- st.files_transferred + 1 + List.length members;
  stage_members st members;
  ignore (Cache.insert_cold_group st.client members);
  Cost_model.demand_fetch_latency st.config.cost ~served_from_disk:(not served_from_memory)

(* The resilience loop: attempts time out while the plan blocks them
   (message lost or server down), waiting out the timeout budget and the
   exponential backoff between attempts. [`Served] carries the surviving
   attempt number; [`Degraded] means the retry budget ran dry. *)
let rec attempt_fetch st ~time ~attempt ~waited =
  let r = st.config.resilience in
  let down = Plan.server_down st.plan ~time in
  if not (down || Plan.message_lost st.plan ~time ~attempt) then `Served (attempt, waited)
  else begin
    if down then st.counters.Counters.outage_denials <- st.counters.Counters.outage_denials + 1
    else st.counters.Counters.lost_messages <- st.counters.Counters.lost_messages + 1;
    st.counters.Counters.timeouts <- st.counters.Counters.timeouts + 1;
    let waited = waited +. Resilience.failure_cost_ms r ~attempt in
    if attempt < r.Resilience.max_retries then begin
      st.counters.Counters.retries <- st.counters.Counters.retries + 1;
      attempt_fetch st ~time ~attempt:(attempt + 1) ~waited
    end
    else `Degraded waited
  end

(* Reconstruct the wait phases of a finished resilience loop for the
   trace context: attempt [a]'s cost is its timeout budget plus the
   backoff before the next attempt — exactly [Resilience.failure_cost_ms],
   split into its two spans. *)
let push_wait_phases ctx r ~failures =
  for a = 0 to failures - 1 do
    Agg_obs.Trace_ctx.push ctx ~cat:"timeout" (Printf.sprintf "attempt%d" a)
      ~dur_ms:r.Resilience.timeout_ms;
    if a < r.Resilience.max_retries then
      Agg_obs.Trace_ctx.push ctx ~cat:"backoff"
        (Printf.sprintf "backoff%d" (a + 1))
        ~dur_ms:(Resilience.backoff_ms r ~attempt:(a + 1))
  done

let remote_fetch st ~time ~tracing file =
  let obs = Agg_obs.Scope.sink st.config.scope in
  let group =
    match Scheme.group_config st.config.client with
    | Some c ->
        Agg_core.Group_builder.build st.tracker ~group_size:c.Agg_core.Config.group_size file
    | None -> [ file ]
  in
  let members = match group with _ :: rest -> rest | [] -> [] in
  let outcome =
    if Plan.enabled st.plan then begin
      let outcome = attempt_fetch st ~time ~attempt:0 ~waited:0.0 in
      (if Agg_obs.Sink.enabled obs then
         let failures =
           match outcome with `Served (a, _) -> a | `Degraded _ -> st.config.resilience.Resilience.max_retries + 1
         in
         for a = 0 to failures - 1 do
           Agg_obs.Sink.emit obs (Agg_obs.Event.Fetch_timeout { file; attempt = a })
         done);
      outcome
    end
    else `Served (0, 0.0)
  in
  (match tracing with
  | Some ctx ->
      let failures =
        match outcome with
        | `Served (a, _) -> a
        | `Degraded _ -> st.config.resilience.Resilience.max_retries + 1
      in
      push_wait_phases ctx st.config.resilience ~failures
  | None -> ());
  match outcome with
  | `Served (attempt, waited) ->
      let base = complete_fetch st file members in
      (* [`Aggregating_both]-style server: walk the chain deeper and stage
         the extension into the server cache only — disk readahead that is
         not transferred to the client. *)
      (match Scheme.group_config st.config.server with
      | Some c ->
          let extended =
            Agg_core.Group_builder.build st.tracker
              ~group_size:c.Agg_core.Config.group_size file
          in
          let rec drop n l =
            if n <= 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r
          in
          stage_members st (drop (List.length group) extended)
      | None -> ());
      let served_ms =
        if Plan.enabled st.plan then begin
          let multiplier = Plan.latency_multiplier st.plan ~time ~attempt in
          if multiplier > 1.0 then
            st.counters.Counters.slowed_fetches <- st.counters.Counters.slowed_fetches + 1;
          base *. multiplier
        end
        else base
      in
      (match tracing with
      | Some ctx ->
          Agg_obs.Trace_ctx.push ctx ~cat:"fetch"
            (Printf.sprintf "fetch f%d" file)
            ~dur_ms:served_ms
      | None -> ());
      waited +. served_ms
  | `Degraded waited ->
      (* Retries exhausted: fall back to a single-file demand fetch over
         the hardened minimal path — speculative members are dropped, the
         demanded file is still served (modelled as always succeeding). *)
      st.counters.Counters.degraded_fetches <- st.counters.Counters.degraded_fetches + 1;
      if Agg_obs.Sink.enabled obs then
        Agg_obs.Sink.emit obs
          (Agg_obs.Event.Fetch_degraded { file; dropped = List.length members });
      (match Agg_obs.Scope.series st.config.scope with
      | Some s -> Agg_obs.Series.observe_degraded s ~index:time
      | None -> ());
      let fallback = complete_fetch st file [] in
      (match tracing with
      | Some ctx ->
          Agg_obs.Trace_ctx.push ctx ~cat:"degraded"
            (Printf.sprintf "degraded f%d" file)
            ~dur_ms:fallback
      | None -> ());
      waited +. fallback

let access st file =
  let time = st.now in
  st.now <- time + 1;
  if Plan.enabled st.plan && Plan.client_crashes st.plan ~time ~client:0 then begin
    let wiped = Cache.size st.client in
    Cache.clear st.client;
    st.counters.Counters.crashes <- st.counters.Counters.crashes + 1;
    if Agg_obs.Sink.enabled (Agg_obs.Scope.sink st.config.scope) then
      Agg_obs.Sink.emit (Agg_obs.Scope.sink st.config.scope) (Agg_obs.Event.Client_crashed { client = 0; wiped })
  end;
  (* §3: access statistics are piggy-backed to the server's metadata *)
  Tracker.observe st.tracker file;
  let tracing =
    match Agg_obs.Scope.trace_ctx st.config.scope with
    | Some ctx when Agg_obs.Trace_ctx.sampled ctx ~request:time -> Some ctx
    | _ -> None
  in
  let hit = Cache.access st.client file in
  let latency =
    if hit then begin
      st.client_hits <- st.client_hits + 1;
      let served = st.config.cost.Cost_model.client_memory in
      (match tracing with
      | Some ctx -> Agg_obs.Trace_ctx.push ctx ~cat:"hit" "client hit" ~dur_ms:served
      | None -> ());
      served
    end
    else remote_fetch st ~time ~tracing file
  in
  (match Agg_obs.Scope.trace_ctx st.config.scope with
  | Some ctx -> Agg_obs.Trace_ctx.commit ctx ~request:time ~file ~latency_ms:latency
  | None -> ());
  (match Agg_obs.Scope.series st.config.scope with
  | Some s ->
      Agg_obs.Series.observe_access s ~index:time ~hit;
      Agg_obs.Series.observe_latency s ~index:time
        ~us:(int_of_float ((latency *. 1000.0) +. 0.5))
  | None -> ());
  st.latencies.(time) <- latency

let run config trace =
  let st = make_state config ~accesses:(Agg_trace.Trace.length trace) in
  Agg_trace.Trace.iter (fun (e : Agg_trace.Event.t) -> access st e.Agg_trace.Event.file) trace;
  let latencies = st.latencies in
  (* the mean reads the latencies in access order; the percentile
     selections then reorder them *)
  let mean_latency = Agg_util.Stats.mean latencies in
  {
    accesses = Array.length latencies;
    client_hits = st.client_hits;
    server_hits = st.server_hits;
    disk_reads = st.disk_reads;
    files_transferred = st.files_transferred;
    round_trips = st.round_trips;
    mean_latency;
    p95_latency = Agg_util.Stats.percentile_in_place latencies 0.95;
    p99_latency = Agg_util.Stats.percentile_in_place latencies 0.99;
    faults = st.counters;
  }

let client_hit_rate (r : result) = Agg_util.Stats.ratio r.client_hits r.accesses

let pp_result ppf r =
  Format.fprintf ppf
    "accesses=%d client_hits=%d server_hits=%d disk_reads=%d transferred=%d rtts=%d mean=%.3fms p95=%.3fms p99=%.3fms"
    r.accesses r.client_hits r.server_hits r.disk_reads r.files_transferred r.round_trips
    r.mean_latency r.p95_latency r.p99_latency
