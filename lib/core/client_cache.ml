module Cache = Agg_cache.Cache
module Int_table = Agg_util.Int_table
module Tracker = Agg_successor.Tracker
module Dense = Agg_trace.File_id.Dense
module Sink = Agg_obs.Sink
module Event = Agg_obs.Event

type scheme = Plain of Cache.kind | Aggregating of Config.t
type key = Dense.key

(* Every per-file structure below is keyed by the file's dense key, so
   none spans the id space; [ids] turns a key back into the file id that
   events report. *)
type t = {
  config : Config.t;
  aggregating : bool; (* [false] for a [Plain] level: no metadata, no groups *)
  obs : Sink.t;
  traced : bool; (* [Sink.enabled obs], fixed at creation: a field read, not a call per check *)
  ids : Dense.t;
  mutable group_size : int;
  (* a miss builds its group into [group] and the cache writes the
     members it takes to [admitted]; both hold at least [group_size] *)
  mutable group : int array;
  mutable admitted : int array;
  cache : Cache.t;
  tracker : Tracker.t;
  speculative : Int_table.t; (* prefetched residents not yet demanded *)
  inserted_at : Int_table.t; (* instrumentation only: access count at insertion *)
  mutable last_observed : int; (* instrumentation only: predecessor file id, -1 at start *)
  (* [cache] counts accesses, hits and demand fetches; the engine counts
     only what the cache cannot see, its prefetches *)
  mutable prefetch_issued : int;
  mutable prefetch_used : int;
  mutable prefetch_evicted_unused : int;
}

(* The instrumentation's clock. [Cache.access] counts an access before
   it admits or evicts anything, so every age below reads the count
   including the access under way. *)
let accesses t = (Cache.stats t.cache).Cache.accesses

(* Fired by the cache on every physical eviction — only installed when the
   sink is enabled, so the uninstrumented path is exactly the old one. *)
let on_evict t victim =
  let speculative = Int_table.mem t.speculative victim in
  let age_accesses =
    match Int_table.get t.inserted_at victim with at when at >= 0 -> accesses t - at | _ -> 0
  in
  Int_table.remove t.inserted_at victim;
  Sink.emit t.obs (Event.Evicted { file = Dense.file t.ids victim; speculative; age_accesses })

let make ~aggregating ?(obs = Sink.noop) ?weight_of config ~capacity =
  Config.validate config;
  let ids = Dense.create () in
  let weight_of = Option.map (fun weight_of k -> weight_of (Dense.file ids k)) weight_of in
  let t =
    {
      config;
      aggregating;
      obs;
      traced = Sink.enabled obs;
      ids;
      group_size = config.group_size;
      group = Array.make config.group_size 0;
      admitted = Array.make config.group_size 0;
      cache = Cache.create ?weight_of config.cache_kind ~capacity;
      tracker =
        Tracker.create ~capacity:config.successor_capacity ~policy:config.metadata_policy ();
      speculative = Int_table.create ~capacity:64 ();
      inserted_at = Int_table.create ~capacity:64 ();
      last_observed = -1;
      prefetch_issued = 0;
      prefetch_used = 0;
      prefetch_evicted_unused = 0;
    }
  in
  if t.traced then Cache.set_on_evict t.cache (on_evict t);
  t

let create ?(config = Config.default) ?obs ?weight_of ~capacity () =
  make ~aggregating:true ?obs ?weight_of config ~capacity

let of_scheme ?obs scheme ~capacity =
  match scheme with
  | Aggregating config -> make ~aggregating:true ?obs config ~capacity
  | Plain kind ->
      let config = { Config.default with group_size = 1; cache_kind = kind } in
      make ~aggregating:false ?obs config ~capacity

let group_size t = t.group_size

let set_group_size t g =
  if g <= 0 then invalid_arg "Client_cache.set_group_size: group size must be positive";
  t.group_size <- g;
  if g > Array.length t.group then begin
    t.group <- Array.make g 0;
    t.admitted <- Array.make g 0
  end

let mark_speculative t k =
  t.prefetch_issued <- t.prefetch_issued + 1;
  Int_table.set t.speculative k 1;
  if t.traced then begin
    Int_table.set t.inserted_at k (accesses t);
    Sink.emit t.obs (Event.Prefetch_issued { file = Dense.file t.ids k })
  end

(* The members are [t.group.(1) .. t.group.(len - 1)]. *)
let insert_members t len =
  match t.config.member_position with
  | Config.Tail ->
      (* The whole group arrives in one retrieval: appended as a block. *)
      let n = Cache.insert_cold_into t.cache t.group ~pos:1 ~len:(len - 1) t.admitted in
      for i = 0 to n - 1 do
        mark_speculative t t.admitted.(i)
      done
  | Config.Head ->
      for i = 1 to len - 1 do
        let k = t.group.(i) in
        if not (Cache.mem t.cache k) then begin
          Cache.insert_hot t.cache k;
          mark_speculative t k
        end
      done

(* The group for key [k]: built from the tracker, reported by file id. *)
let build_group t k =
  let len = Group_builder.build_into t.tracker ~group_size:t.group_size k t.group in
  if t.traced then
    Sink.emit t.obs (Event.Group_built { anchor = Dense.file t.ids k; size = len });
  len

(* [intern] and [observe] are inlined into [access] and
   [Server_cache.access]: they run on every access, and without flambda a
   call is not inlined unless asked. *)
let[@inline] intern t file = Dense.intern t.ids file

let[@inline] observe t (k : key) =
  if t.aggregating then begin
    let k = (k :> int) in
    Tracker.observe t.tracker k;
    if t.traced then begin
      let file = Dense.file t.ids k in
      if t.last_observed >= 0 then
        Sink.emit t.obs (Event.Successor_update { prev = t.last_observed; next = file });
      t.last_observed <- file
    end
  end

let fetch t (k : key) =
  let k = (k :> int) in
  if t.traced then begin
    (* Hit/miss is announced before the cache mutates so the eviction
       events a miss triggers follow their cause in the stream. *)
    let file = Dense.file t.ids k in
    match Cache.depth t.cache k with
    | Some depth -> Sink.emit t.obs (Event.Demand_hit { file; depth })
    | None -> Sink.emit t.obs (Event.Demand_miss { file })
  end;
  if Cache.access t.cache k then begin
    if Int_table.mem t.speculative k then begin
      (* First demand hit on a prefetched file: the speculation paid off. *)
      t.prefetch_used <- t.prefetch_used + 1;
      Int_table.remove t.speculative k;
      if t.traced then begin
        let lifetime =
          match Int_table.get t.inserted_at k with at when at >= 0 -> accesses t - at | _ -> 0
        in
        Sink.emit t.obs (Event.Prefetch_promoted { file = Dense.file t.ids k; lifetime })
      end
    end;
    true
  end
  else begin
    if Int_table.mem t.speculative k then begin
      (* It was prefetched once but evicted before being used. *)
      t.prefetch_evicted_unused <- t.prefetch_evicted_unused + 1;
      Int_table.remove t.speculative k
    end;
    if t.traced then Int_table.set t.inserted_at k (accesses t);
    if t.aggregating then insert_members t (build_group t k);
    false
  end

let access t file =
  let k = intern t file in
  (* Metadata first: the tracker sees the raw request sequence. *)
  observe t k;
  fetch t k

let admit t (k : key) =
  let k = (k :> int) in
  if not (Cache.mem t.cache k) then begin
    Cache.insert_cold t.cache k;
    mark_speculative t k
  end

let metrics t =
  let s = Cache.stats t.cache in
  {
    Metrics.accesses = s.accesses;
    hits = s.hits;
    demand_fetches = s.misses;
    prefetch =
      {
        Metrics.issued = t.prefetch_issued;
        used = t.prefetch_used;
        evicted_unused = t.prefetch_evicted_unused;
      };
  }

let run t trace =
  for i = 0 to Agg_trace.Trace.length trace - 1 do
    ignore (access t (Agg_trace.Trace.file trace i))
  done;
  metrics t

let run_files t files =
  Array.iter (fun file -> ignore (access t file)) files;
  metrics t

let weighted_metrics t = Cache.weighted_stats t.cache

let resident t file =
  match Dense.find t.ids file with Some k -> Cache.mem t.cache (k :> int) | None -> false

