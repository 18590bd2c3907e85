type t = {
  mutable demand_hits : int;
  mutable demand_misses : int;
  mutable prefetch_issued : int;
  mutable prefetch_promoted : int;
  mutable evicted_speculative : int;
  mutable evicted_demand : int;
  mutable evicted_unused : int;
  mutable groups_built : int;
  mutable successor_updates : int;
  mutable fetch_timeouts : int;
  mutable fetch_retries : int;
  mutable degraded_fetches : int;
  mutable client_crashes : int;
  mutable node_routes : int;
  mutable replica_failovers : int;
  mutable ring_rebalances : int;
  mutable bytes_accessed : int;
  mutable bytes_hit : int;
  mutable cost_fetched : int;
  mutable cost_prefetched : int;
}

let create () =
  {
    demand_hits = 0; demand_misses = 0; prefetch_issued = 0; prefetch_promoted = 0;
    evicted_speculative = 0; evicted_demand = 0; evicted_unused = 0; groups_built = 0;
    successor_updates = 0; fetch_timeouts = 0; fetch_retries = 0; degraded_fetches = 0;
    client_crashes = 0; node_routes = 0; replica_failovers = 0; ring_rebalances = 0;
    bytes_accessed = 0; bytes_hit = 0; cost_fetched = 0; cost_prefetched = 0;
  }

let observe t ~size ~cost (event : Event.t) =
  match event with
  | Demand_hit _ ->
      t.demand_hits <- t.demand_hits + 1;
      t.bytes_accessed <- t.bytes_accessed + size;
      t.bytes_hit <- t.bytes_hit + size
  | Demand_miss _ ->
      t.demand_misses <- t.demand_misses + 1;
      t.bytes_accessed <- t.bytes_accessed + size;
      t.cost_fetched <- t.cost_fetched + cost
  | Prefetch_issued _ ->
      t.prefetch_issued <- t.prefetch_issued + 1;
      t.cost_prefetched <- t.cost_prefetched + cost
  | Prefetch_promoted _ -> t.prefetch_promoted <- t.prefetch_promoted + 1
  | Evicted { speculative = true; _ } -> t.evicted_speculative <- t.evicted_speculative + 1
  | Evicted { speculative = false; _ } -> t.evicted_demand <- t.evicted_demand + 1
  | Group_built _ -> t.groups_built <- t.groups_built + 1
  | Successor_update _ -> t.successor_updates <- t.successor_updates + 1
  | Fetch_timeout { attempt; _ } ->
      t.fetch_timeouts <- t.fetch_timeouts + 1;
      (* attempt 1 and later exist only because a retry re-issued them *)
      if attempt > 0 then t.fetch_retries <- t.fetch_retries + 1
  | Fetch_degraded _ -> t.degraded_fetches <- t.degraded_fetches + 1
  | Client_crashed _ -> t.client_crashes <- t.client_crashes + 1
  | Node_routed _ -> t.node_routes <- t.node_routes + 1
  | Replica_failover _ -> t.replica_failovers <- t.replica_failovers + 1
  | Ring_rebalance _ -> t.ring_rebalances <- t.ring_rebalances + 1

let add t x =
  t.demand_hits <- t.demand_hits + x.demand_hits;
  t.demand_misses <- t.demand_misses + x.demand_misses;
  t.prefetch_issued <- t.prefetch_issued + x.prefetch_issued;
  t.prefetch_promoted <- t.prefetch_promoted + x.prefetch_promoted;
  t.evicted_speculative <- t.evicted_speculative + x.evicted_speculative;
  t.evicted_demand <- t.evicted_demand + x.evicted_demand;
  t.evicted_unused <- t.evicted_unused + x.evicted_unused;
  t.groups_built <- t.groups_built + x.groups_built;
  t.successor_updates <- t.successor_updates + x.successor_updates;
  t.fetch_timeouts <- t.fetch_timeouts + x.fetch_timeouts;
  t.fetch_retries <- t.fetch_retries + x.fetch_retries;
  t.degraded_fetches <- t.degraded_fetches + x.degraded_fetches;
  t.client_crashes <- t.client_crashes + x.client_crashes;
  t.node_routes <- t.node_routes + x.node_routes;
  t.replica_failovers <- t.replica_failovers + x.replica_failovers;
  t.ring_rebalances <- t.ring_rebalances + x.ring_rebalances;
  t.bytes_accessed <- t.bytes_accessed + x.bytes_accessed;
  t.bytes_hit <- t.bytes_hit + x.bytes_hit;
  t.cost_fetched <- t.cost_fetched + x.cost_fetched;
  t.cost_prefetched <- t.cost_prefetched + x.cost_prefetched

let merge a b =
  let t = create () in
  add t a;
  add t b;
  t

let accesses t = t.demand_hits + t.demand_misses

let diff a b =
  List.filter_map
    (fun (name, field) -> if field a = field b then None else Some (name, field a, field b))
    [
      ("demand_hits", fun t -> t.demand_hits);
      ("demand_misses", fun t -> t.demand_misses);
      ("prefetch_issued", fun t -> t.prefetch_issued);
      ("prefetch_promoted", fun t -> t.prefetch_promoted);
      ("evicted_speculative", fun t -> t.evicted_speculative);
      ("evicted_demand", fun t -> t.evicted_demand);
      ("evicted_unused", fun t -> t.evicted_unused);
      ("groups_built", fun t -> t.groups_built);
      ("successor_updates", fun t -> t.successor_updates);
      ("fetch_timeouts", fun t -> t.fetch_timeouts);
      ("fetch_retries", fun t -> t.fetch_retries);
      ("degraded_fetches", fun t -> t.degraded_fetches);
      ("client_crashes", fun t -> t.client_crashes);
      ("node_routes", fun t -> t.node_routes);
      ("replica_failovers", fun t -> t.replica_failovers);
      ("ring_rebalances", fun t -> t.ring_rebalances);
      ("bytes_accessed", fun t -> t.bytes_accessed);
      ("bytes_hit", fun t -> t.bytes_hit);
      ("cost_fetched", fun t -> t.cost_fetched);
      ("cost_prefetched", fun t -> t.cost_prefetched);
    ]
