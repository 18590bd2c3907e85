module Config = Agg_core.Config
module Metrics = Agg_core.Metrics
module Server_cache = Agg_core.Server_cache

(* --- reference successor tracker ---------------------------------------

   Agg_successor.Tracker restated: one Model_successor list per file, and
   one "previous file" context per client (a single one, client 0, unless
   [per_client]). *)

module Tracker = struct
  type t = {
    capacity : int;
    policy : Agg_successor.Successor_list.policy;
    per_client : bool;
    mutable lists : (int * Model_successor.t) list;
    mutable contexts : (int * int) list;
  }

  let create ?(per_client = false) ~capacity ~policy () =
    { capacity; policy; per_client; lists = []; contexts = [] }

  let list_for t file =
    match List.assoc_opt file t.lists with
    | Some l -> l
    | None ->
        let l = Model_successor.create ~capacity:t.capacity ~policy:t.policy in
        t.lists <- (file, l) :: t.lists;
        l

  let observe t ?(client = 0) file =
    let key = if t.per_client then client else 0 in
    (match List.assoc_opt key t.contexts with
    | Some prev -> Model_successor.observe (list_for t prev) file
    | None -> ());
    t.contexts <- (key, file) :: List.remove_assoc key t.contexts

  let successors t file =
    match List.assoc_opt file t.lists with Some l -> Model_successor.ranked l | None -> []

  let tracked_files t =
    List.length (List.filter (fun (_, l) -> Model_successor.size l > 0) t.lists)

  let reset_context t = t.contexts <- []
end

(* --- reference group builder --------------------------------------------

   Restates Agg_core.Group_builder: immediate successors for small groups,
   transitive most-likely chaining with fallback for large ones. *)

let take n list =
  let rec loop n acc = function
    | [] -> List.rev acc
    | _ when n = 0 -> List.rev acc
    | x :: rest -> loop (n - 1) (x :: acc) rest
  in
  loop n [] list

let build_group ~successors ~group_size file =
  if group_size <= 0 then invalid_arg "Model_system.build_group: group_size must be positive";
  let want = group_size - 1 in
  let immediate () =
    take want (List.filter (fun s -> s <> file) (successors file))
  in
  let transitive () =
    let seen = ref [ file ] in
    let members = ref [] in
    let count = ref 0 in
    let add f =
      seen := f :: !seen;
      members := f :: !members;
      incr count
    in
    let first_unseen candidates =
      List.find_opt (fun s -> not (List.mem s !seen)) candidates
    in
    let rec extend current =
      if !count < want then
        match first_unseen (successors current) with
        | Some next ->
            add next;
            extend next
        | None -> fallback (file :: List.rev !members)
    and fallback chain =
      if !count < want then
        let candidates =
          List.rev chain |> List.filter_map (fun m -> first_unseen (successors m))
        in
        match candidates with
        | next :: _ ->
            add next;
            extend next
        | [] -> ()
    in
    extend file;
    List.rev !members
  in
  let members =
    if want = 0 then [] else if group_size <= 3 then immediate () else transitive ()
  in
  file :: members

(* --- reference block insertion ------------------------------------------

   Restates Cache.insert_cold_group: distinct non-resident members only,
   capped at capacity - 1, room made for the whole block before any member
   is appended. Returns the members actually inserted. *)

let insert_cold_group cache members =
  let fresh =
    List.rev
      (List.fold_left
         (fun acc k ->
           if List.mem k acc || Model_cache.mem cache k then acc else k :: acc)
         [] members)
  in
  let admitted = take (Model_cache.capacity cache - 1) fresh in
  let need = Model_cache.size cache + List.length admitted - Model_cache.capacity cache in
  for _ = 1 to need do
    ignore (Model_cache.evict cache)
  done;
  List.iter (fun k -> ignore (Model_cache.insert cache ~pos:Agg_cache.Policy.Cold ~weight:Agg_cache.Policy.unit_weight k)) admitted;
  admitted

(* --- the aggregating client --------------------------------------------- *)

module Client = struct
  type t = {
    config : Config.t;
    cache : Model_cache.t;
    tracker : Tracker.t;
    mutable speculative : int list;
    mutable accesses : int;
    mutable hits : int;
    mutable demand_fetches : int;
    mutable prefetch_issued : int;
    mutable prefetch_used : int;
    mutable prefetch_evicted_unused : int;
  }

  let create ?(config = Config.default) ~capacity () =
    Config.validate config;
    {
      config;
      cache = Model_cache.create config.cache_kind ~capacity;
      tracker =
        Tracker.create ~capacity:config.successor_capacity ~policy:config.metadata_policy ();
      speculative = [];
      accesses = 0;
      hits = 0;
      demand_fetches = 0;
      prefetch_issued = 0;
      prefetch_used = 0;
      prefetch_evicted_unused = 0;
    }

  let mark_speculative t file =
    t.prefetch_issued <- t.prefetch_issued + 1;
    if not (List.mem file t.speculative) then t.speculative <- file :: t.speculative

  let forget_speculative t file = t.speculative <- List.filter (fun f -> f <> file) t.speculative

  let insert_members t members =
    match t.config.member_position with
    | Config.Tail ->
        let admitted = insert_cold_group t.cache members in
        List.iter (mark_speculative t) admitted
    | Config.Head ->
        List.iter
          (fun file ->
            if not (Model_cache.mem t.cache file) then begin
              ignore (Model_cache.insert t.cache ~pos:Agg_cache.Policy.Hot ~weight:Agg_cache.Policy.unit_weight file);
              mark_speculative t file
            end)
          members

  let access t file =
    Tracker.observe t.tracker file;
    t.accesses <- t.accesses + 1;
    if Model_cache.mem t.cache file then begin
      Model_cache.promote t.cache file;
      t.hits <- t.hits + 1;
      if List.mem file t.speculative then begin
        t.prefetch_used <- t.prefetch_used + 1;
        forget_speculative t file
      end;
      true
    end
    else begin
      ignore (Model_cache.insert t.cache ~pos:Agg_cache.Policy.Hot ~weight:Agg_cache.Policy.unit_weight file);
      if List.mem file t.speculative then begin
        t.prefetch_evicted_unused <- t.prefetch_evicted_unused + 1;
        forget_speculative t file
      end;
      t.demand_fetches <- t.demand_fetches + 1;
      (match
         build_group ~successors:(Tracker.successors t.tracker)
           ~group_size:t.config.group_size file
       with
      | _requested :: members -> insert_members t members
      | [] -> assert false);
      false
    end

  let contents t = Model_cache.contents t.cache

  let metrics t =
    {
      Metrics.accesses = t.accesses;
      hits = t.hits;
      demand_fetches = t.demand_fetches;
      prefetch =
        {
          Metrics.issued = t.prefetch_issued;
          used = t.prefetch_used;
          evicted_unused = t.prefetch_evicted_unused;
        };
    }
end

(* --- the two-level system ------------------------------------------------ *)

module Server = struct
  type t = {
    scheme : Server_cache.scheme;
    cooperative : bool;
    client : Model_cache.t;
    server : Model_cache.t;
    tracker : Tracker.t option;
    mutable speculative : int list;
    mutable client_accesses : int;
    mutable server_requests : int;
    mutable server_hits : int;
    mutable store_fetches : int;
    mutable prefetch_issued : int;
    mutable prefetch_used : int;
    mutable prefetch_evicted_unused : int;
  }

  let create ?(cooperative = false) ~filter_kind ~filter_capacity ~server_capacity ~scheme () =
    let server_kind, tracker =
      match scheme with
      | Server_cache.Plain kind -> (kind, None)
      | Server_cache.Aggregating config ->
          Config.validate config;
          ( config.cache_kind,
            Some
              (Tracker.create ~capacity:config.successor_capacity ~policy:config.metadata_policy ())
          )
    in
    {
      scheme;
      cooperative;
      client = Model_cache.create filter_kind ~capacity:filter_capacity;
      server = Model_cache.create server_kind ~capacity:server_capacity;
      tracker;
      speculative = [];
      client_accesses = 0;
      server_requests = 0;
      server_hits = 0;
      store_fetches = 0;
      prefetch_issued = 0;
      prefetch_used = 0;
      prefetch_evicted_unused = 0;
    }

  let mark_speculative t file =
    t.store_fetches <- t.store_fetches + 1;
    t.prefetch_issued <- t.prefetch_issued + 1;
    if not (List.mem file t.speculative) then t.speculative <- file :: t.speculative

  let forget_speculative t file = t.speculative <- List.filter (fun f -> f <> file) t.speculative

  let insert_members t (config : Config.t) members =
    match config.member_position with
    | Config.Tail ->
        let admitted = insert_cold_group t.server members in
        List.iter (mark_speculative t) admitted
    | Config.Head ->
        List.iter
          (fun file ->
            if not (Model_cache.mem t.server file) then begin
              ignore (Model_cache.insert t.server ~pos:Agg_cache.Policy.Hot ~weight:Agg_cache.Policy.unit_weight file);
              mark_speculative t file
            end)
          members

  let serve t file =
    t.server_requests <- t.server_requests + 1;
    (match (t.tracker, t.cooperative) with
    | Some tracker, false -> Tracker.observe tracker file
    | Some _, true | None, _ -> ());
    if Model_cache.mem t.server file then begin
      Model_cache.promote t.server file;
      t.server_hits <- t.server_hits + 1;
      if List.mem file t.speculative then begin
        t.prefetch_used <- t.prefetch_used + 1;
        forget_speculative t file
      end;
      Server_cache.Server_hit
    end
    else begin
      ignore (Model_cache.insert t.server ~pos:Agg_cache.Policy.Hot ~weight:Agg_cache.Policy.unit_weight file);
      if List.mem file t.speculative then begin
        t.prefetch_evicted_unused <- t.prefetch_evicted_unused + 1;
        forget_speculative t file
      end;
      t.store_fetches <- t.store_fetches + 1;
      (match (t.scheme, t.tracker) with
      | Server_cache.Aggregating config, Some tracker -> (
          match
            build_group ~successors:(Tracker.successors tracker) ~group_size:config.group_size
              file
          with
          | _requested :: members -> insert_members t config members
          | [] -> assert false)
      | Server_cache.Plain _, _ -> ()
      | Server_cache.Aggregating _, None -> assert false);
      Server_cache.Server_miss
    end

  let access t file =
    t.client_accesses <- t.client_accesses + 1;
    (match (t.tracker, t.cooperative) with
    | Some tracker, true -> Tracker.observe tracker file
    | Some _, false | None, _ -> ());
    if Model_cache.mem t.client file then begin
      Model_cache.promote t.client file;
      Server_cache.Client_hit
    end
    else begin
      ignore (Model_cache.insert t.client ~pos:Agg_cache.Policy.Hot ~weight:Agg_cache.Policy.unit_weight file);
      serve t file
    end

  let metrics t =
    {
      Metrics.client_accesses = t.client_accesses;
      server_requests = t.server_requests;
      server_hits = t.server_hits;
      store_fetches = t.store_fetches;
      prefetch =
        {
          Metrics.issued = t.prefetch_issued;
          used = t.prefetch_used;
          evicted_unused = t.prefetch_evicted_unused;
        };
    }

  let run t trace =
    Agg_trace.Trace.iter (fun (e : Agg_trace.Event.t) -> ignore (access t e.file)) trace;
    metrics t
end
