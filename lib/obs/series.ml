(* Windows are dense: observing window w materialises every window up to
   w, so two series over disjoint index ranges align window-for-window
   under merge. Node loads are dense int arrays (grown by doubling) for
   the same reason — elementwise sums keep merge associative and
   allocation-light. *)

type win = {
  mutable w_accesses : int;
  mutable w_hits : int;
  mutable w_degraded : int;
  mutable w_spec_evictions : int;
  w_latency : Histogram.t;
  mutable w_node_loads : int array;
  mutable w_nodes : int;  (* highest observed node + 1 *)
  mutable w_bytes_accessed : int;
  mutable w_bytes_hit : int;
  mutable w_cost_fetched : int;
}

(* [weighted] records whether any weighted observation was ever made; the
   exporters gate the weighted fields on it, so a series that never saw
   one produces byte-identical output to the pre-weights format. *)
type t = { window : int; mutable wins : win array; mutable used : int; mutable weighted : bool }

let fresh_win () =
  {
    w_accesses = 0;
    w_hits = 0;
    w_degraded = 0;
    w_spec_evictions = 0;
    w_latency = Histogram.create ();
    w_node_loads = [||];
    w_nodes = 0;
    w_bytes_accessed = 0;
    w_bytes_hit = 0;
    w_cost_fetched = 0;
  }

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
  let win = win_at t ~index in
  win.w_accesses <- win.w_accesses + 1;
  if hit then win.w_hits <- win.w_hits + 1

let observe_latency t ~index ~us =
  if us < 0 then invalid_arg (Printf.sprintf "Series.observe_latency: negative latency %d" us);
  Histogram.add (win_at t ~index).w_latency us

let observe_degraded t ~index =
  let win = win_at t ~index in
  win.w_degraded <- win.w_degraded + 1

let observe_eviction t ~index ~speculative =
  if speculative then begin
    let win = win_at t ~index in
    win.w_spec_evictions <- win.w_spec_evictions + 1
  end
  else ignore (win_at t ~index)

let observe_weighted t ~index ~size ~cost ~hit =
  if size <= 0 then
    invalid_arg (Printf.sprintf "Series.observe_weighted: size must be positive (got %d)" size);
  if cost <= 0 then
    invalid_arg (Printf.sprintf "Series.observe_weighted: cost must be positive (got %d)" cost);
  let win = win_at t ~index in
  t.weighted <- true;
  win.w_bytes_accessed <- win.w_bytes_accessed + size;
  if hit then win.w_bytes_hit <- win.w_bytes_hit + size
  else win.w_cost_fetched <- win.w_cost_fetched + cost

let observe_node t ~index ~node =
  if node < 0 then invalid_arg (Printf.sprintf "Series.observe_node: negative node %d" node);
  let win = win_at t ~index in
  if node >= Array.length win.w_node_loads then begin
    let cap = max 4 (max (node + 1) (2 * Array.length win.w_node_loads)) in
    let loads = Array.make cap 0 in
    Array.blit win.w_node_loads 0 loads 0 win.w_nodes;
    win.w_node_loads <- loads
  end;
  if node >= win.w_nodes then win.w_nodes <- node + 1;
  win.w_node_loads.(node) <- win.w_node_loads.(node) + 1

let observe_event t ~index event =
  match (event : Event.t) with
  | Event.Demand_hit _ -> observe_access t ~index ~hit:true
  | Event.Demand_miss _ -> observe_access t ~index ~hit:false
  | Event.Fetch_degraded _ -> observe_degraded t ~index
  | Event.Evicted { speculative; _ } -> observe_eviction t ~index ~speculative
  | Event.Node_routed { node; _ } -> observe_node t ~index ~node
  | Event.Prefetch_issued _ | Event.Prefetch_promoted _ | Event.Group_built _
  | Event.Successor_update _ | Event.Fetch_timeout _ | Event.Client_crashed _
  | Event.Replica_failover _ | Event.Ring_rebalance _ ->
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
  let merged_win i =
    let pick s = if i < s.used then Some s.wins.(i) else None in
    match (pick a, pick b) with
    | Some x, None | None, Some x ->
        (* fresh copy: merge must not alias its inputs *)
        {
          w_accesses = x.w_accesses;
          w_hits = x.w_hits;
          w_degraded = x.w_degraded;
          w_spec_evictions = x.w_spec_evictions;
          w_latency = Histogram.merge x.w_latency (Histogram.create ());
          w_node_loads = Array.sub x.w_node_loads 0 x.w_nodes;
          w_nodes = x.w_nodes;
          w_bytes_accessed = x.w_bytes_accessed;
          w_bytes_hit = x.w_bytes_hit;
          w_cost_fetched = x.w_cost_fetched;
        }
    | Some x, Some y ->
        let nodes = max x.w_nodes y.w_nodes in
        let loads =
          Array.init nodes (fun n ->
              (if n < x.w_nodes then x.w_node_loads.(n) else 0)
              + if n < y.w_nodes then y.w_node_loads.(n) else 0)
        in
        {
          w_accesses = x.w_accesses + y.w_accesses;
          w_hits = x.w_hits + y.w_hits;
          w_degraded = x.w_degraded + y.w_degraded;
          w_spec_evictions = x.w_spec_evictions + y.w_spec_evictions;
          w_latency = Histogram.merge x.w_latency y.w_latency;
          w_node_loads = loads;
          w_nodes = nodes;
          w_bytes_accessed = x.w_bytes_accessed + y.w_bytes_accessed;
          w_bytes_hit = x.w_bytes_hit + y.w_bytes_hit;
          w_cost_fetched = x.w_cost_fetched + y.w_cost_fetched;
        }
    | None, None -> fresh_win ()
  in
  { window = a.window; wins = Array.init used merged_win; used; weighted = a.weighted || b.weighted }

(* --- accessors ---------------------------------------------------------- *)

let get t w =
  if w < 0 || w >= t.used then
    invalid_arg (Printf.sprintf "Series: window %d outside [0, %d)" w t.used);
  t.wins.(w)

let accesses t w = (get t w).w_accesses
let bytes_accessed t w = (get t w).w_bytes_accessed
let bytes_hit t w = (get t w).w_bytes_hit
let cost_fetched t w = (get t w).w_cost_fetched
let hits t w = (get t w).w_hits
let degraded t w = (get t w).w_degraded
let speculative_evictions t w = (get t w).w_spec_evictions

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den
let hit_rate t w =
  let win = get t w in
  pct win.w_hits win.w_accesses

let byte_hit_rate t w =
  let win = get t w in
  pct win.w_bytes_hit win.w_bytes_accessed

let degraded_rate t w =
  let win = get t w in
  pct win.w_degraded win.w_accesses

let latency_quantile t w q = Histogram.quantile (get t w).w_latency q

let node_loads t w =
  let win = get t w in
  let acc = ref [] in
  for n = win.w_nodes - 1 downto 0 do
    if win.w_node_loads.(n) > 0 then acc := (n, win.w_node_loads.(n)) :: !acc
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
    | None -> win.w_nodes
  in
  if nodes = 0 then 0.0
  else begin
    let total = ref 0 and max_load = ref 0 in
    for n = 0 to nodes - 1 do
      let load = if n < win.w_nodes then win.w_node_loads.(n) else 0 in
      total := !total + load;
      if load > !max_load then max_load := load
    done;
    if !total = 0 then 0.0
    else float_of_int !max_load /. (float_of_int !total /. float_of_int nodes)
  end

let fold_wins t f init =
  let acc = ref init in
  for w = 0 to t.used - 1 do
    acc := f !acc t.wins.(w)
  done;
  !acc

let total_accesses t = fold_wins t (fun acc w -> acc + w.w_accesses) 0
let total_hits t = fold_wins t (fun acc w -> acc + w.w_hits) 0
let total_degraded t = fold_wins t (fun acc w -> acc + w.w_degraded) 0
let total_speculative_evictions t = fold_wins t (fun acc w -> acc + w.w_spec_evictions) 0

let total_latency t = fold_wins t (fun acc w -> Histogram.merge acc w.w_latency) (Histogram.create ())

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
    Buffer.add_string buf
      (Printf.sprintf
         "    {\"index\": %d, \"accesses\": %d, \"hits\": %d, \"degraded\": %d, \
          \"speculative_evictions\": %d, \"latency_us\": {\"p50\": %s, \"p95\": %s, \"p99\": %s}, \
          \"node_loads\": [%s]%s}%s\n"
         w win.w_accesses win.w_hits win.w_degraded win.w_spec_evictions
         (quantile_field win.w_latency 0.5)
         (quantile_field win.w_latency 0.95)
         (quantile_field win.w_latency 0.99)
         (String.concat ", "
            (List.map (fun (n, c) -> Printf.sprintf "[%d, %d]" n c) (node_loads t w)))
         (if t.weighted then
            Printf.sprintf ", \"bytes_accessed\": %d, \"bytes_hit\": %d, \"cost_fetched\": %d"
              win.w_bytes_accessed win.w_bytes_hit win.w_cost_fetched
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
  gauge "accesses" (fun w -> sample "accesses" w (string_of_int (accesses t w)));
  gauge "hit_rate" (fun w -> sample "hit_rate" w (float_str (hit_rate t w)));
  gauge "degraded_rate" (fun w -> sample "degraded_rate" w (float_str (degraded_rate t w)));
  gauge "speculative_evictions" (fun w ->
      sample "speculative_evictions" w (string_of_int (speculative_evictions t w)));
  gauge "p99_latency_us" (fun w ->
      match latency_quantile t w 0.99 with
      | Some us -> sample "p99_latency_us" w (string_of_int us)
      | None -> ());
  if t.weighted then begin
    gauge "byte_hit_rate" (fun w -> sample "byte_hit_rate" w (float_str (byte_hit_rate t w)));
    gauge "cost_fetched" (fun w -> sample "cost_fetched" w (string_of_int (cost_fetched t w)))
  end;
  gauge "node_load" (fun w ->
      List.iter
        (fun (n, c) ->
          Buffer.add_string buf
            (Printf.sprintf "%s_node_load{window=\"%d\",node=\"%d\"} %d\n" prefix w n c))
        (node_loads t w));
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "series window=%d windows=%d" t.window t.used;
  for w = 0 to t.used - 1 do
    Format.fprintf ppf "@ [%d] n=%d hit=%.1f%% degraded=%d spec_evict=%d" w (accesses t w)
      (hit_rate t w) (degraded t w)
      (speculative_evictions t w)
  done
