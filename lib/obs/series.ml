(* Windows are dense: observing window w materialises every window up to
   w, so two series over disjoint index ranges align window-for-window
   under merge. Node loads are dense int arrays (grown by doubling) for
   the same reason — elementwise sums keep merge associative and
   allocation-light. *)

type win = {
  counts : Counter.t;
  latency : Histogram.t;
  mutable node_loads : int array;
  mutable nodes : int;  (* highest observed node + 1 *)
}

(* [weighted] records whether any weighted observation was ever made; the
   exporters gate the weighted fields on it, so a series that never saw
   one produces byte-identical output to the pre-weights format. *)
type t = { window : int; mutable wins : win array; mutable used : int; mutable weighted : bool }

let fresh_win () =
  { counts = Counter.create (); latency = Histogram.create (); node_loads = [||]; nodes = 0 }

let create ~window =
  if window <= 0 then
    invalid_arg (Printf.sprintf "Series.create: window must be positive (got %d)" window);
  { window; wins = [||]; used = 0; weighted = false }

let window_size t = t.window
let windows t = t.used

let win_at t ~index =
  if index < 0 then
    invalid_arg (Printf.sprintf "Series: negative access index %d" index);
  let w = index / t.window in
  if w >= Array.length t.wins then begin
    let cap = max 8 (max (w + 1) (2 * Array.length t.wins)) in
    let wins = Array.init cap (fun i -> if i < t.used then t.wins.(i) else fresh_win ()) in
    t.wins <- wins
  end;
  (* materialise skipped windows so [used] is always the dense count *)
  if w >= t.used then t.used <- w + 1;
  t.wins.(w)

let observe_access t ~index ~hit =
  let c = (win_at t ~index).counts in
  if hit then c.demand_hits <- c.demand_hits + 1 else c.demand_misses <- c.demand_misses + 1

let observe_latency t ~index ~us =
  if us < 0 then invalid_arg (Printf.sprintf "Series.observe_latency: negative latency %d" us);
  Histogram.add (win_at t ~index).latency us

let observe_degraded t ~index =
  let c = (win_at t ~index).counts in
  c.degraded_fetches <- c.degraded_fetches + 1

let observe_eviction t ~index ~speculative =
  let c = (win_at t ~index).counts in
  if speculative then c.evicted_speculative <- c.evicted_speculative + 1
  else c.evicted_demand <- c.evicted_demand + 1

let observe_weighted t ~index ~size ~cost ~hit =
  if size <= 0 then
    invalid_arg (Printf.sprintf "Series.observe_weighted: size must be positive (got %d)" size);
  if cost <= 0 then
    invalid_arg (Printf.sprintf "Series.observe_weighted: cost must be positive (got %d)" cost);
  let c = (win_at t ~index).counts in
  t.weighted <- true;
  c.bytes_accessed <- c.bytes_accessed + size;
  if hit then c.bytes_hit <- c.bytes_hit + size else c.cost_fetched <- c.cost_fetched + cost

(* The one place a node route is counted, whether it comes directly or
   as an event. *)
let observe_node t ~index ~node =
  if node < 0 then invalid_arg (Printf.sprintf "Series.observe_node: negative node %d" node);
  let win = win_at t ~index in
  if node >= Array.length win.node_loads then begin
    let cap = max 4 (max (node + 1) (2 * Array.length win.node_loads)) in
    let loads = Array.make cap 0 in
    Array.blit win.node_loads 0 loads 0 win.nodes;
    win.node_loads <- loads
  end;
  if node >= win.nodes then win.nodes <- node + 1;
  win.node_loads.(node) <- win.node_loads.(node) + 1;
  win.counts.node_routes <- win.counts.node_routes + 1

(* Only the kinds a window records open one: an event of another kind
   (the prefetches a miss issues, say) can fall past the last access's
   window and would open an empty one. Events carry no weights, so
   event-fed windows keep zero byte and cost sums. *)
let observe_event t ~index event =
  match (event : Event.t) with
  | Demand_hit _ | Demand_miss _ | Fetch_degraded _ | Evicted _ ->
      Counter.observe (win_at t ~index).counts ~size:0 ~cost:0 event
  | Node_routed { node; _ } -> observe_node t ~index ~node
  | Prefetch_issued _ | Prefetch_promoted _ | Group_built _ | Successor_update _
  | Fetch_timeout _ | Client_crashed _ | Replica_failover _ | Ring_rebalance _ ->
      ()

let of_events ~window events =
  let t = create ~window in
  let accesses = ref 0 in
  List.iter
    (fun event ->
      observe_event t ~index:!accesses event;
      match (event : Event.t) with
      | Event.Demand_hit _ | Event.Demand_miss _ -> incr accesses
      | _ -> ())
    events;
  t

let merge a b =
  if a.window <> b.window then
    invalid_arg
      (Printf.sprintf "Series.merge: window sizes differ (%d vs %d)" a.window b.window);
  let used = max a.used b.used in
  let win s i = if i < s.used then s.wins.(i) else fresh_win () in
  (* fresh records throughout: merge must not alias its inputs *)
  let merged_win i =
    let x = win a i and y = win b i in
    let nodes = max x.nodes y.nodes in
    let load w n = if n < w.nodes then w.node_loads.(n) else 0 in
    {
      counts = Counter.merge x.counts y.counts;
      latency = Histogram.merge x.latency y.latency;
      node_loads = Array.init nodes (fun n -> load x n + load y n);
      nodes;
    }
  in
  { window = a.window; wins = Array.init used merged_win; used; weighted = a.weighted || b.weighted }

(* --- accessors ---------------------------------------------------------- *)

let get t w =
  if w < 0 || w >= t.used then
    invalid_arg (Printf.sprintf "Series: window %d outside [0, %d)" w t.used);
  t.wins.(w)

let counts t w = (get t w).counts

let totals t =
  let c = Counter.create () in
  for w = 0 to t.used - 1 do
    Counter.add c t.wins.(w).counts
  done;
  c

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den
let hit_rate t w =
  let c = counts t w in
  pct c.demand_hits (Counter.accesses c)

let byte_hit_rate t w =
  let c = counts t w in
  pct c.bytes_hit c.bytes_accessed

let degraded_rate t w =
  let c = counts t w in
  pct c.degraded_fetches (Counter.accesses c)

let latency_quantile t w q = Histogram.quantile (get t w).latency q

let node_loads t w =
  let win = get t w in
  let acc = ref [] in
  for n = win.nodes - 1 downto 0 do
    if win.node_loads.(n) > 0 then acc := (n, win.node_loads.(n)) :: !acc
  done;
  !acc

let load_imbalance ?nodes t w =
  let win = get t w in
  let nodes =
    match nodes with
    | Some n ->
        if n <= 0 then
          invalid_arg (Printf.sprintf "Series.load_imbalance: nodes must be positive (got %d)" n);
        n
    | None -> win.nodes
  in
  if nodes = 0 then 0.0
  else begin
    let total = ref 0 and max_load = ref 0 in
    for n = 0 to nodes - 1 do
      let load = if n < win.nodes then win.node_loads.(n) else 0 in
      total := !total + load;
      if load > !max_load then max_load := load
    done;
    if !total = 0 then 0.0
    else float_of_int !max_load /. (float_of_int !total /. float_of_int nodes)
  end

let total_latency t =
  let h = ref (Histogram.create ()) in
  for w = 0 to t.used - 1 do
    h := Histogram.merge !h t.wins.(w).latency
  done;
  !h

(* --- export -------------------------------------------------------------- *)

let float_str f =
  let s = Printf.sprintf "%g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let quantile_field h q =
  match Histogram.quantile h q with Some v -> string_of_int v | None -> "null"

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "{\n  \"window_size\": %d,\n  \"windows\": [\n" t.window);
  for w = 0 to t.used - 1 do
    let win = t.wins.(w) in
    let c = win.counts in
    Buffer.add_string buf
      (Printf.sprintf
         "    {\"index\": %d, \"accesses\": %d, \"hits\": %d, \"degraded\": %d, \
          \"speculative_evictions\": %d, \"latency_us\": {\"p50\": %s, \"p95\": %s, \"p99\": %s}, \
          \"node_loads\": [%s]%s}%s\n"
         w (Counter.accesses c) c.demand_hits c.degraded_fetches c.evicted_speculative
         (quantile_field win.latency 0.5)
         (quantile_field win.latency 0.95)
         (quantile_field win.latency 0.99)
         (String.concat ", "
            (List.map (fun (n, c) -> Printf.sprintf "[%d, %d]" n c) (node_loads t w)))
         (if t.weighted then
            Printf.sprintf ", \"bytes_accessed\": %d, \"bytes_hit\": %d, \"cost_fetched\": %d"
              c.bytes_accessed c.bytes_hit c.cost_fetched
          else "")
         (if w = t.used - 1 then "" else ","))
  done;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let to_prometheus ?(prefix = "agg") t =
  let buf = Buffer.create 1024 in
  let gauge name render =
    Buffer.add_string buf (Printf.sprintf "# TYPE %s_%s gauge\n" prefix name);
    for w = 0 to t.used - 1 do
      render w
    done
  in
  let sample name w value =
    Buffer.add_string buf (Printf.sprintf "%s_%s{window=\"%d\"} %s\n" prefix name w value)
  in
  let count field w = string_of_int (field (counts t w)) in
  gauge "accesses" (fun w -> sample "accesses" w (count Counter.accesses w));
  gauge "hit_rate" (fun w -> sample "hit_rate" w (float_str (hit_rate t w)));
  gauge "degraded_rate" (fun w -> sample "degraded_rate" w (float_str (degraded_rate t w)));
  gauge "speculative_evictions" (fun w ->
      sample "speculative_evictions" w (count (fun c -> c.evicted_speculative) w));
  gauge "p99_latency_us" (fun w ->
      match latency_quantile t w 0.99 with
      | Some us -> sample "p99_latency_us" w (string_of_int us)
      | None -> ());
  if t.weighted then begin
    gauge "byte_hit_rate" (fun w -> sample "byte_hit_rate" w (float_str (byte_hit_rate t w)));
    gauge "cost_fetched" (fun w -> sample "cost_fetched" w (count (fun c -> c.cost_fetched) w))
  end;
  gauge "node_load" (fun w ->
      List.iter
        (fun (n, c) ->
          Buffer.add_string buf
            (Printf.sprintf "%s_node_load{window=\"%d\",node=\"%d\"} %d\n" prefix w n c))
        (node_loads t w));
  Buffer.contents buf
