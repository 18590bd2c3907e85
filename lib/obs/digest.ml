type t = {
  counts : Counter.t;
  lifetime : Histogram.t;
  hit_depth : Histogram.t;
  group_size : Histogram.t;
  weight_of : (int -> int * int) option;
  (* Mirror of the simulator's speculative-resident table, rebuilt from
     the stream: a file is marked from Prefetch_issued until it is
     promoted or its eviction is discovered by the next demand miss. *)
  marked : (int, unit) Hashtbl.t;
}

let create ?weight_of () =
  {
    counts = Counter.create ();
    lifetime = Histogram.create ();
    hit_depth = Histogram.create ();
    group_size = Histogram.create ();
    weight_of;
    marked = Hashtbl.create 64;
  }

let observe t (event : Event.t) =
  let size, cost =
    match (event, t.weight_of) with
    | (Demand_hit { file; _ } | Demand_miss { file } | Prefetch_issued { file }), Some f -> f file
    | _ -> (1, 1)
  in
  Counter.observe t.counts ~size ~cost event;
  match event with
  | Demand_hit { depth; _ } -> Histogram.add t.hit_depth depth
  | Demand_miss { file } ->
      (* The simulator discovers a wasted prefetch lazily: the next demand
         miss on a still-marked file means it was evicted before use. *)
      if Hashtbl.mem t.marked file then begin
        t.counts.evicted_unused <- t.counts.evicted_unused + 1;
        Hashtbl.remove t.marked file
      end
  | Prefetch_issued { file } -> Hashtbl.replace t.marked file ()
  | Prefetch_promoted { file; lifetime } ->
      Hashtbl.remove t.marked file;
      Histogram.add t.lifetime lifetime
  | Evicted { speculative = true; age_accesses; _ } -> Histogram.add t.lifetime age_accesses
  | Group_built { size; _ } -> Histogram.add t.group_size size
  | Evicted _ | Successor_update _ | Fetch_timeout _ | Fetch_degraded _ | Client_crashed _
  | Node_routed _ | Replica_failover _ | Ring_rebalance _ ->
      ()

let of_events ?weight_of events =
  let t = create ?weight_of () in
  List.iter (observe t) events;
  t

let counts t = t.counts

let byte_weighted_hit_rate t = Agg_util.Stats.ratio t.counts.bytes_hit t.counts.bytes_accessed
let total_retrieval_cost t = t.counts.cost_fetched + t.counts.cost_prefetched
let lifetime t = t.lifetime
let hit_depth t = t.hit_depth
let group_size t = t.group_size

let pp ppf t =
  let c = t.counts in
  Format.fprintf ppf
    "hits=%d misses=%d issued=%d promoted=%d evicted_unused=%d groups=%d succ_updates=%d"
    c.demand_hits c.demand_misses c.prefetch_issued c.prefetch_promoted c.evicted_unused
    c.groups_built c.successor_updates
