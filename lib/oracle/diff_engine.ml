module Prng = Agg_util.Prng
module Policy = Agg_cache.Policy
module Cache = Agg_cache.Cache
module Config = Agg_core.Config
module Metrics = Agg_core.Metrics
module Server_cache = Agg_core.Server_cache
module Successor_list = Agg_successor.Successor_list
module Profile = Agg_workload.Profile
module Generator = Agg_workload.Generator

type op =
  | Insert of Policy.insert_position * Policy.weight * int
  | Promote of int
  | Charge of int * int
  | Evict
  | Mem of int
  | Clear

let pos_name = function Policy.Hot -> "hot" | Policy.Cold -> "cold"

let op_to_string = function
  | Insert (pos, w, k) when Policy.is_unit w -> Printf.sprintf "insert %s %d" (pos_name pos) k
  | Insert (pos, w, k) ->
      Printf.sprintf "insert %s %d s%dc%d" (pos_name pos) k w.Policy.size w.Policy.cost
  | Promote k -> Printf.sprintf "promote %d" k
  | Charge (k, cost) -> Printf.sprintf "charge %d c%d" k cost
  | Evict -> "evict"
  | Mem k -> Printf.sprintf "mem %d" k
  | Clear -> "clear"

let ops_to_string ops = String.concat "; " (List.map op_to_string ops)

let gen_ops prng ~universe ~count =
  if universe <= 0 then invalid_arg "Diff_engine.gen_ops: universe must be positive";
  List.init count (fun _ ->
      let key () = Prng.int prng universe in
      match Prng.int prng 16 with
      | 0 | 1 | 2 | 3 | 4 -> Insert (Policy.Hot, Policy.unit_weight, key ())
      | 5 | 6 | 7 -> Insert (Policy.Cold, Policy.unit_weight, key ())
      | 8 | 9 | 10 -> Promote (key ())
      | 11 | 12 -> Evict
      | 13 | 14 -> Mem (key ())
      | _ -> Clear)

let gen_weighted_ops prng ~universe ~max_size ~max_cost ~count =
  if universe <= 0 then invalid_arg "Diff_engine.gen_weighted_ops: universe must be positive";
  if max_size <= 0 || max_cost <= 0 then
    invalid_arg "Diff_engine.gen_weighted_ops: max_size and max_cost must be positive";
  List.init count (fun _ ->
      let key () = Prng.int prng universe in
      let weight () =
        { Policy.size = 1 + Prng.int prng max_size; cost = 1 + Prng.int prng max_cost }
      in
      match Prng.int prng 16 with
      | 0 | 1 | 2 | 3 | 4 -> Insert (Policy.Hot, weight (), key ())
      | 5 | 6 -> Insert (Policy.Cold, weight (), key ())
      | 7 | 8 | 9 -> Promote (key ())
      | 10 | 11 -> Charge (key (), 1 + Prng.int prng max_cost)
      | 12 -> Evict
      | 13 | 14 -> Mem (key ())
      | _ -> Clear)

type divergence = { step : int; detail : string }

(* --- lockstep drivers ----------------------------------------------------

   A driver is the Policy.S surface reified as closures, so the same
   runner compares any optimized implementation — or a seeded mutant —
   against the model. *)

type driver = {
  d_insert : Policy.insert_position -> Policy.weight -> int -> int list;
  d_promote : int -> unit;
  d_charge : int -> int -> unit;
  d_evict : unit -> int;
  d_mem : int -> bool;
  d_size : unit -> int;
  d_used : unit -> int;
  d_contents : unit -> int list;
  d_clear : unit -> unit;
}

let module_of_kind : Cache.kind -> (module Policy.S) = function
  | Cache.Lru -> (module Agg_cache.Lru)
  | Cache.Lfu -> (module Agg_cache.Lfu)
  | Cache.Fifo -> (module Agg_cache.Fifo)
  | Cache.Mru -> (module Agg_cache.Mru)
  | Cache.Clock -> (module Agg_cache.Clock)
  | Cache.Random -> (module Agg_cache.Random_policy)
  | Cache.Mq -> (module Agg_cache.Mq)
  | Cache.Slru -> (module Agg_cache.Slru)
  | Cache.Twoq -> (module Agg_cache.Twoq)
  | Cache.Arc -> (module Agg_cache.Arc)

(* Any Policy.S implementation reified as a driver — optimized policies,
   weighted baselines and the list-based reference modules all qualify. *)
let driver_of (type a) (module P : Policy.S with type t = a) (state : a) =
  {
    d_insert = (fun pos w k -> P.insert state ~pos ~weight:w k);
    d_promote = (fun k -> P.promote state k);
    d_charge = (fun k cost -> P.charge state k ~cost);
    d_evict = (fun () -> P.evict state);
    d_mem = (fun k -> P.mem state k);
    d_size = (fun () -> P.size state);
    d_used = (fun () -> P.used state);
    d_contents = (fun () -> P.contents state);
    d_clear = (fun () -> P.clear state);
  }

let policy_driver kind ~capacity =
  let (module P : Policy.S) = module_of_kind kind in
  driver_of (module P) (P.create ~capacity)

let model_driver model =
  {
    d_insert = (fun pos w k -> Model_cache.insert model ~pos ~weight:w k);
    d_promote = (fun k -> Model_cache.promote model k);
    d_charge = (fun k cost -> Model_cache.charge model k ~cost);
    d_evict = (fun () -> Model_cache.evict model);
    d_mem = (fun k -> Model_cache.mem model k);
    d_size = (fun () -> Model_cache.size model);
    d_used = (fun () -> Model_cache.used model);
    d_contents = (fun () -> Model_cache.contents model);
    d_clear = (fun () -> Model_cache.clear model);
  }

type weighted_policy = Landlord | Bundle

let weighted_policy_name = function Landlord -> "landlord" | Bundle -> "bundle"
let all_weighted_policies = [ Landlord; Bundle ]

let weighted_driver wp ~capacity =
  match wp with
  | Landlord ->
      driver_of (module Agg_baselines.Landlord) (Agg_baselines.Landlord.create ~capacity)
  | Bundle -> driver_of (module Agg_baselines.Bundle) (Agg_baselines.Bundle.create ~capacity)

let weighted_model_driver wp ~capacity =
  match wp with
  | Landlord -> driver_of (module Model_cache.Landlord) (Model_cache.Landlord.create ~capacity)
  | Bundle -> driver_of (module Model_cache.Bundle) (Model_cache.Bundle.create ~capacity)

(* The seeded mutant: LRU whose promote sends a resident key to the *cold*
   end (insert of a resident key repositions without evicting, so this is
   a pure ordering bug — invisible to mem/size/contents, fatal only to
   eviction order, which is exactly what the lockstep victims expose). *)
let mutant_lru_driver ~capacity =
  let base = policy_driver Cache.Lru ~capacity in
  {
    base with
    d_promote = (fun k -> if base.d_mem k then ignore (base.d_insert Policy.Cold Policy.unit_weight k));
  }

let str_opt = function None -> "None" | Some k -> Printf.sprintf "Some %d" k
let str_victim = function -1 -> "none" | k -> string_of_int k
let str_list l = Printf.sprintf "[%s]" (String.concat " " (List.map string_of_int l))

let run_pair ~capacity subject reference ops =
  let sorted l = List.sort compare l in
  let check_state step op =
    let ss = subject.d_size () and ms = reference.d_size () in
    let su = subject.d_used () and mu = reference.d_used () in
    if ss <> ms then
      Some
        { step; detail = Printf.sprintf "after %s: size %d vs model %d" (op_to_string op) ss ms }
    else if su <> mu then
      Some
        { step; detail = Printf.sprintf "after %s: used %d vs model %d" (op_to_string op) su mu }
    else if su > capacity then
      (* the conservation invariant: total resident size never exceeds
         capacity, no matter what mix of weights was inserted *)
      Some
        {
          step;
          detail = Printf.sprintf "after %s: used %d exceeds capacity %d" (op_to_string op) su capacity;
        }
    else
      let sc = sorted (subject.d_contents ()) and mc = sorted (reference.d_contents ()) in
      if sc <> mc then
        Some
          {
            step;
            detail =
              Printf.sprintf "after %s: contents %s vs model %s" (op_to_string op) (str_list sc)
                (str_list mc);
          }
      else None
  in
  let apply step op =
    let mismatch what a b =
      Some { step; detail = Printf.sprintf "%s: %s: %s vs model %s" (op_to_string op) what a b }
    in
    match op with
    | Insert (pos, w, k) ->
        let vs = subject.d_insert pos w k and vm = reference.d_insert pos w k in
        if vs <> vm then mismatch "victims" (str_list vs) (str_list vm) else check_state step op
    | Promote k ->
        subject.d_promote k;
        reference.d_promote k;
        check_state step op
    | Charge (k, cost) ->
        subject.d_charge k cost;
        reference.d_charge k cost;
        check_state step op
    | Evict ->
        let vs = subject.d_evict () and vm = reference.d_evict () in
        if vs <> vm then mismatch "victim" (str_victim vs) (str_victim vm) else check_state step op
    | Mem k ->
        let rs = subject.d_mem k and rm = reference.d_mem k in
        if rs <> rm then mismatch "answer" (string_of_bool rs) (string_of_bool rm)
        else check_state step op
    | Clear ->
        subject.d_clear ();
        reference.d_clear ();
        check_state step op
  in
  let rec loop step = function
    | [] -> None
    | op :: rest -> ( match apply step op with Some d -> Some d | None -> loop (step + 1) rest)
  in
  loop 0 ops

let diff_ops kind ~capacity ops =
  if capacity <= 0 then invalid_arg "Diff_engine.diff_ops: capacity must be positive";
  run_pair ~capacity (policy_driver kind ~capacity)
    (model_driver (Model_cache.create kind ~capacity))
    ops

let diff_weighted_ops wp ~capacity ops =
  if capacity <= 0 then invalid_arg "Diff_engine.diff_weighted_ops: capacity must be positive";
  run_pair ~capacity (weighted_driver wp ~capacity) (weighted_model_driver wp ~capacity) ops

let diff_ops_mutant ~capacity ops =
  if capacity <= 0 then invalid_arg "Diff_engine.diff_ops_mutant: capacity must be positive";
  run_pair ~capacity (mutant_lru_driver ~capacity)
    (model_driver (Model_cache.create Cache.Lru ~capacity))
    ops

(* --- shrinking: greedy window removal (ddmin-lite) ----------------------- *)

let shrink_ops fails ops =
  let remove_window l lo len = List.filteri (fun i _ -> i < lo || i >= lo + len) l in
  let current = ref ops in
  let chunk = ref (max 1 (List.length ops / 2)) in
  while !chunk >= 1 do
    let improved = ref true in
    while !improved do
      improved := false;
      let n = List.length !current in
      let lo = ref 0 in
      while !lo < n && not !improved do
        let cand = remove_window !current !lo !chunk in
        if List.length cand < n && fails cand then begin
          current := cand;
          improved := true
        end
        else lo := !lo + !chunk
      done
    done;
    chunk := !chunk / 2
  done;
  !current

(* --- checks -------------------------------------------------------------- *)

type check = { name : string; cases : int; pass : bool; detail : string }

let all_pass checks = List.for_all (fun c -> c.pass) checks

let ok name cases = { name; cases; pass = true; detail = "" }
let fail name cases detail = { name; cases; pass = false; detail }

let shrunk_report ~capacity fails ops (d : divergence) =
  let minimal = shrink_ops fails ops in
  Printf.sprintf "capacity=%d step=%d %s; shrunk repro (%d ops): %s" capacity d.step d.detail
    (List.length minimal) (ops_to_string minimal)

(* Unit rounds draw classic unit-weight ops; weighted rounds mix sizes up
   to one past the capacity (so the oversize bypass is exercised) with
   costs in [1, 9] and charge ops. *)
let round_gen ~weighted prng ~universe ~capacity ~count =
  if weighted then gen_weighted_ops prng ~universe ~max_size:(capacity + 1) ~max_cost:9 ~count
  else gen_ops prng ~universe ~count

let fuzz_round ~label ~weighted ~map ~run prng =
  let capacity = 1 + Prng.int prng 24 in
  let universe = (capacity * 3) + 4 in
  let count = 500 in
  let ops = map (round_gen ~weighted prng ~universe ~capacity ~count) in
  let fails candidate = Option.is_some (run ~capacity candidate) in
  match run ~capacity ops with
  | None -> Ok count
  | Some d -> Error (Printf.sprintf "%s: %s" label (shrunk_report ~capacity fails ops d))

let fuzz_driver ?(map = Fun.id) ~name ~label ~weighted ~run ~seed ~ops () =
  let prng = Prng.create ~seed () in
  let generated = ref 0 in
  let failure = ref None in
  while !failure = None && !generated < ops do
    match fuzz_round ~label ~weighted ~map ~run prng with
    | Ok n -> generated := !generated + n
    | Error detail -> failure := Some detail
  done;
  match !failure with
  | None -> ok name !generated
  | Some detail -> fail name !generated (Printf.sprintf "seed=%d %s" seed detail)

let fuzz_policy ~seed ~ops kind =
  let label = Cache.kind_name kind in
  fuzz_driver ~name:("ops." ^ label) ~label ~weighted:false
    ~run:(fun ~capacity candidate -> diff_ops kind ~capacity candidate)
    ~seed ~ops ()

(* The same ten policies under mixed weights: the Weighted_of_unit layer
   vs the model's restatement of it. *)
let fuzz_policy_weighted ~seed ~ops kind =
  let label = Cache.kind_name kind in
  fuzz_driver ~name:("wops." ^ label) ~label ~weighted:true
    ~run:(fun ~capacity candidate -> diff_ops kind ~capacity candidate)
    ~seed ~ops ()

let fuzz_weighted_policy ~seed ~ops wp =
  let label = weighted_policy_name wp in
  fuzz_driver ~name:("wops." ^ label) ~label ~weighted:true
    ~run:(fun ~capacity candidate -> diff_weighted_ops wp ~capacity candidate)
    ~seed ~ops ()

(* Landlord ≡ GreedyDual-Size: the credit drain of [Model_cache.Landlord_drain]
   against the heap-indexed [Agg_baselines.Landlord]. Sizes are rounded
   down to powers of two and costs are integers, so every credit,
   priority and rent step is a dyadic rational held exactly in a float:
   the two forms must then agree victim for victim. *)
let dyadic_ops ops =
  let floor_pow2 n =
    let rec go p = if 2 * p > n then p else go (2 * p) in
    go 1
  in
  List.map
    (function
      | Insert (pos, w, k) -> Insert (pos, { w with Policy.size = floor_pow2 w.Policy.size }, k)
      | op -> op)
    ops

let landlord_witness ~seed ~ops =
  fuzz_driver ~map:dyadic_ops ~name:"witness.landlord-drain" ~label:"landlord-drain"
    ~weighted:true
    ~run:(fun ~capacity candidate ->
      run_pair ~capacity
        (weighted_driver Landlord ~capacity)
        (driver_of (module Model_cache.Landlord_drain) (Model_cache.Landlord_drain.create ~capacity))
        candidate)
    ~seed ~ops ()

let fuzz_all ~seed ~ops =
  List.map (fuzz_policy ~seed ~ops) Cache.all_kinds
  @ List.map (fuzz_policy_weighted ~seed ~ops) Cache.all_kinds
  @ List.map (fuzz_weighted_policy ~seed ~ops) all_weighted_policies
  @ [ landlord_witness ~seed ~ops ]

let mutant_check ~seed ~ops =
  let name = "mutant.lru-cold-promote" in
  let c =
    fuzz_driver ~name ~label:"mutant" ~weighted:false
      ~run:(fun ~capacity candidate -> diff_ops_mutant ~capacity candidate)
      ~seed ~ops ()
  in
  (* The mutant must be *caught*: a clean run means the engine is blind. *)
  if c.pass then
    fail name c.cases "seeded LRU mutant (promote-to-cold-end) survived the fuzz undetected"
  else { c with pass = true; detail = "caught: " ^ c.detail }

(* --- unit-weight LRU equivalence ------------------------------------------

   Landlord and the bundle policy both reduce to LRU at
   unit size/cost (credits stay in {0,1}, priorities rise with L, ties
   break towards the least recently used). Checked access-for-access —
   hit answers, victims and the exact recency order — over every
   calibrated profile trace. *)
let lru_equivalence ~capacity files wp =
  let subject = weighted_driver wp ~capacity in
  let lru = policy_driver Cache.Lru ~capacity in
  let divergence = ref None in
  Array.iteri
    (fun i file ->
      if !divergence = None then begin
        let hs = subject.d_mem file and hl = lru.d_mem file in
        if hs <> hl then
          divergence :=
            Some (Printf.sprintf "event %d (file %d): resident %b vs lru %b" i file hs hl)
        else if hs then begin
          subject.d_promote file;
          subject.d_charge file 1;
          lru.d_promote file;
          lru.d_charge file 1
        end
        else begin
          let vs = subject.d_insert Policy.Hot Policy.unit_weight file in
          let vl = lru.d_insert Policy.Hot Policy.unit_weight file in
          if vs <> vl then
            divergence :=
              Some
                (Printf.sprintf "event %d (file %d): victims %s vs lru %s" i file (str_list vs)
                   (str_list vl))
        end;
        if
          !divergence = None
          && (i mod 7 = 0 || i = Array.length files - 1)
          && subject.d_contents () <> lru.d_contents ()
        then divergence := Some (Printf.sprintf "event %d: recency order differs from LRU" i)
      end)
    files;
  (Array.length files, !divergence)

let lru_equivalence_checks ~seed ~events =
  List.concat_map
    (fun (profile : Profile.t) ->
      let files = Generator.generate_files ~seed ~events profile in
      List.map
        (fun wp ->
          let name =
            Printf.sprintf "unit-lru.%s.%s" (weighted_policy_name wp) profile.Profile.name
          in
          match lru_equivalence ~capacity:128 files wp with
          | cases, None -> ok name cases
          | cases, Some detail -> fail name cases (Printf.sprintf "seed=%d %s" seed detail))
        all_weighted_policies)
    Profile.all

(* --- successor-scheme differentials -------------------------------------- *)

let int_list_to_string l = String.concat " " (List.map string_of_int l)

(* One Successor_list vs one Model_successor per file, fed the trace's
   immediate-successor pairs; membership, ranked order and top prediction
   compared at every observation. *)
let successor_diff ~policy ~capacity files =
  let real_lists : (int, Successor_list.t) Hashtbl.t = Hashtbl.create 256 in
  let model_lists : (int, Model_successor.t) Hashtbl.t = Hashtbl.create 256 in
  let real_for file =
    match Hashtbl.find_opt real_lists file with
    | Some l -> l
    | None ->
        let l = Successor_list.create ~capacity ~policy in
        Hashtbl.replace real_lists file l;
        l
  in
  let model_for file =
    match Hashtbl.find_opt model_lists file with
    | Some l -> l
    | None ->
        let l = Model_successor.create ~capacity ~policy in
        Hashtbl.replace model_lists file l;
        l
  in
  let divergence = ref None in
  let cases = ref 0 in
  let prev = ref None in
  Array.iteri
    (fun i file ->
      (match (!divergence, !prev) with
      | None, Some p ->
          let real = real_for p and model = model_for p in
          if Successor_list.mem real file <> Model_successor.mem model file then
            divergence :=
              Some
                (Printf.sprintf "event %d: mem %d of list %d: %b vs model %b" i file p
                   (Successor_list.mem real file)
                   (Model_successor.mem model file))
          else begin
            Successor_list.observe real file;
            Model_successor.observe model file;
            incr cases;
            let rr = Successor_list.ranked real and mr = Model_successor.ranked model in
            if rr <> mr then
              divergence :=
                Some
                  (Printf.sprintf "event %d: ranked of list %d: [%s] vs model [%s]" i p
                     (int_list_to_string rr) (int_list_to_string mr))
            else if Successor_list.top real <> Model_successor.top model then
              divergence :=
                Some
                  (Printf.sprintf "event %d: top of list %d: %s vs model %s" i p
                     (str_opt (Successor_list.top real))
                     (str_opt (Model_successor.top model)))
            else if Successor_list.size real <> Model_successor.size model then
              divergence :=
                Some
                  (Printf.sprintf "event %d: size of list %d: %d vs model %d" i p
                     (Successor_list.size real) (Model_successor.size model))
          end
      | _ -> ());
      prev := Some file)
    files;
  (!cases, !divergence)

let oracle_diff files =
  let real = Agg_successor.Oracle.create () in
  let model = Model_successor.Oracle.create () in
  let divergence = ref None in
  let cases = ref 0 in
  let prev = ref None in
  Array.iteri
    (fun i file ->
      (match (!divergence, !prev) with
      | None, Some p ->
          if
            Agg_successor.Oracle.mem real ~file:p ~successor:file
            <> Model_successor.Oracle.mem model ~file:p ~successor:file
          then
            divergence :=
              Some
                (Printf.sprintf "event %d: oracle mem (%d -> %d): %b vs model %b" i p file
                   (Agg_successor.Oracle.mem real ~file:p ~successor:file)
                   (Model_successor.Oracle.mem model ~file:p ~successor:file))
          else begin
            Agg_successor.Oracle.observe real ~file:p ~successor:file;
            Model_successor.Oracle.observe model ~file:p ~successor:file;
            incr cases
          end
      | _ -> ());
      prev := Some file)
    files;
  (!cases, !divergence)

let successor_checks ~seed ~events =
  List.concat_map
    (fun (profile : Profile.t) ->
      let files = Generator.generate_files ~seed ~events profile in
      let scheme_checks =
        List.concat_map
          (fun (policy, pname) ->
            List.map
              (fun capacity ->
                let name =
                  Printf.sprintf "succ.%s.%s.c%d" profile.Profile.name pname capacity
                in
                match successor_diff ~policy ~capacity files with
                | cases, None -> ok name cases
                | cases, Some detail -> fail name cases (Printf.sprintf "seed=%d %s" seed detail))
              [ 1; 4; 8 ])
          [ (Successor_list.Recency, "recency"); (Successor_list.Frequency, "frequency") ]
      in
      let oracle =
        let name = Printf.sprintf "succ.%s.oracle" profile.Profile.name in
        match oracle_diff files with
        | cases, None -> ok name cases
        | cases, Some detail -> fail name cases (Printf.sprintf "seed=%d %s" seed detail)
      in
      scheme_checks @ [ oracle ])
    Profile.all

(* --- calibrated-trace differentials -------------------------------------- *)

(* Replays a profile trace through the stats-keeping Cache and the model:
   hit flags and sizes every step, resident sets periodically and at the
   end, stats at the end. *)
let replay_policy kind ~capacity files =
  let cache = Cache.create kind ~capacity in
  let model = Model_cache.create kind ~capacity in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let divergence = ref None in
  let sorted l = List.sort compare l in
  Array.iteri
    (fun i file ->
      if !divergence = None then begin
        let real_hit = Cache.access cache file in
        let model_hit = Model_cache.mem model file in
        if model_hit then begin
          Model_cache.promote model file;
          incr hits
        end
        else begin
          incr misses;
          let victims = Model_cache.insert model ~pos:Policy.Hot ~weight:Policy.unit_weight file in
          evictions := !evictions + List.length victims
        end;
        if real_hit <> model_hit then
          divergence :=
            Some (Printf.sprintf "event %d (file %d): hit %b vs model %b" i file real_hit model_hit)
        else if Cache.size cache <> Model_cache.size model then
          divergence :=
            Some
              (Printf.sprintf "event %d: size %d vs model %d" i (Cache.size cache)
                 (Model_cache.size model))
        else if
          (i mod 61 = 0 || i = Array.length files - 1)
          && sorted (Cache.contents cache) <> sorted (Model_cache.contents model)
        then divergence := Some (Printf.sprintf "event %d: resident sets differ" i)
      end)
    files;
  (match !divergence with
  | None ->
      let s = Cache.stats cache in
      if
        s.Cache.accesses <> Array.length files
        || s.Cache.hits <> !hits || s.Cache.misses <> !misses
        || s.Cache.evictions <> !evictions
      then
        divergence :=
          Some
            (Printf.sprintf
               "final stats: accesses=%d hits=%d misses=%d evictions=%d vs model hits=%d \
                misses=%d evictions=%d"
               s.Cache.accesses s.Cache.hits s.Cache.misses s.Cache.evictions !hits !misses
               !evictions)
  | Some _ -> ());
  (Array.length files, !divergence)

let replay_client ~config ~capacity files =
  let real = Agg_core.Client_cache.create ~config ~capacity () in
  let model = Model_system.Client.create ~config ~capacity () in
  let divergence = ref None in
  Array.iteri
    (fun i file ->
      if !divergence = None then begin
        let rh = Agg_core.Client_cache.access real file in
        let mh = Model_system.Client.access model file in
        if rh <> mh then
          divergence :=
            Some (Printf.sprintf "event %d (file %d): hit %b vs model %b" i file rh mh)
        else if
          i mod 61 = 0
          && List.exists
               (fun f -> not (Agg_core.Client_cache.resident real f))
               (Model_system.Client.contents model)
        then
          divergence :=
            Some (Printf.sprintf "event %d: model resident set not resident in client" i)
      end)
    files;
  (match !divergence with
  | None ->
      let rm = Agg_core.Client_cache.metrics real in
      let mm = Model_system.Client.metrics model in
      if rm <> mm then
        divergence :=
          Some
            (Format.asprintf "final metrics: %a vs model %a" Metrics.pp_client rm
               Metrics.pp_client mm)
  | Some _ -> ());
  (Array.length files, !divergence)

let outcome_name = function
  | Server_cache.Client_hit -> "client-hit"
  | Server_cache.Server_hit -> "server-hit"
  | Server_cache.Server_miss -> "server-miss"

let replay_server ~cooperative ~scheme ~filter_capacity ~server_capacity files =
  let real =
    Server_cache.create ~cooperative ~filter_kind:Cache.Lru ~filter_capacity ~server_capacity
      ~scheme ()
  in
  let model =
    Model_system.Server.create ~cooperative ~filter_kind:Cache.Lru ~filter_capacity
      ~server_capacity ~scheme ()
  in
  let divergence = ref None in
  Array.iteri
    (fun i file ->
      if !divergence = None then begin
        let ro = Server_cache.access real file in
        let mo = Model_system.Server.access model file in
        if ro <> mo then
          divergence :=
            Some
              (Printf.sprintf "event %d (file %d): outcome %s vs model %s" i file
                 (outcome_name ro) (outcome_name mo))
      end)
    files;
  (match !divergence with
  | None ->
      let rm = Server_cache.metrics real in
      let mm = Model_system.Server.metrics model in
      if rm <> mm then
        divergence :=
          Some
            (Format.asprintf "final metrics: %a vs model %a" Metrics.pp_server rm
               Metrics.pp_server mm)
  | Some _ -> ());
  (Array.length files, !divergence)

(* Cross-cutting paper invariants, checked on the real implementations. *)
let invariant_conservation ~config ~capacity files =
  let client = Agg_core.Client_cache.create ~config ~capacity () in
  Array.iter (fun file -> ignore (Agg_core.Client_cache.access client file)) files;
  let m = Agg_core.Client_cache.metrics client in
  let client_ok = m.Metrics.hits + m.Metrics.demand_fetches = m.Metrics.accesses in
  let server =
    Server_cache.create ~filter_kind:Cache.Lru ~filter_capacity:(max 1 (capacity / 2))
      ~server_capacity:(capacity * 2) ~scheme:(Server_cache.Aggregating config) ()
  in
  Array.iter (fun file -> ignore (Server_cache.access server file)) files;
  let s = Server_cache.metrics server in
  (* store fetches = server misses + speculative fetches, so demand misses
     are exactly [store_fetches - prefetch.issued]. *)
  let server_ok =
    s.Metrics.server_hits + (s.Metrics.store_fetches - s.Metrics.prefetch.Metrics.issued)
    = s.Metrics.server_requests
  in
  if not client_ok then
    Some
      (Printf.sprintf "client: hits %d + demand %d <> accesses %d" m.Metrics.hits
         m.Metrics.demand_fetches m.Metrics.accesses)
  else if not server_ok then
    Some
      (Printf.sprintf "server: hits %d + (store %d - issued %d) <> requests %d"
         s.Metrics.server_hits s.Metrics.store_fetches s.Metrics.prefetch.Metrics.issued
         s.Metrics.server_requests)
  else None

let invariant_belady ~capacity files =
  let belady = Agg_cache.Belady.simulate ~capacity files in
  let offender =
    List.find_map
      (fun kind ->
        let cache = Cache.create kind ~capacity in
        Array.iter (fun file -> ignore (Cache.access cache file)) files;
        let s = Cache.stats cache in
        if s.Cache.hits > belady.Agg_cache.Belady.hits then
          Some (kind, s.Cache.hits)
        else None)
      Cache.all_kinds
  in
  match offender with
  | Some (kind, hits) ->
      Some
        (Printf.sprintf "%s scored %d hits, above Belady's optimal %d" (Cache.kind_name kind)
           hits belady.Agg_cache.Belady.hits)
  | None -> None

let invariant_group1_lru ~capacity files =
  let config = Config.with_group_size 1 Config.default in
  let client = Agg_core.Client_cache.create ~config ~capacity () in
  let plain = Cache.create Cache.Lru ~capacity in
  let divergence = ref None in
  Array.iteri
    (fun i file ->
      if !divergence = None then begin
        let ch = Agg_core.Client_cache.access client file in
        let ph = Cache.access plain file in
        if ch <> ph then
          divergence :=
            Some
              (Printf.sprintf "event %d (file %d): aggregating g=1 hit %b, plain LRU hit %b" i
                 file ch ph)
      end)
    files;
  (match !divergence with
  | None ->
      let m = Agg_core.Client_cache.metrics client in
      let s = Cache.stats plain in
      if m.Metrics.hits <> s.Cache.hits || m.Metrics.demand_fetches <> s.Cache.misses then
        divergence :=
          Some
            (Printf.sprintf "metrics: g=1 hits=%d demand=%d, plain LRU hits=%d misses=%d"
               m.Metrics.hits m.Metrics.demand_fetches s.Cache.hits s.Cache.misses)
  | Some _ -> ());
  !divergence

let trace_checks ~seed ~events =
  let capacity = 128 in
  let check name (cases, divergence) =
    match divergence with
    | None -> ok name cases
    | Some detail -> fail name cases (Printf.sprintf "seed=%d %s" seed detail)
  in
  let check0 name cases = function
    | None -> ok name cases
    | Some detail -> fail name cases (Printf.sprintf "seed=%d %s" seed detail)
  in
  List.concat_map
    (fun (profile : Profile.t) ->
      let p = profile.Profile.name in
      let files = Generator.generate_files ~seed ~events profile in
      let replays =
        List.map
          (fun kind ->
            check
              (Printf.sprintf "replay.%s.%s" p (Cache.kind_name kind))
              (replay_policy kind ~capacity files))
          Cache.all_kinds
      in
      let clients =
        [
          check
            (Printf.sprintf "client.%s" p)
            (replay_client ~config:Config.default ~capacity:200 files);
          check
            (Printf.sprintf "client.head.%s" p)
            (replay_client
               ~config:{ Config.default with Config.member_position = Config.Head }
               ~capacity:200 files);
        ]
      in
      let servers =
        [
          check
            (Printf.sprintf "server.%s" p)
            (replay_server ~cooperative:false ~scheme:(Server_cache.Aggregating Config.default)
               ~filter_capacity:100 ~server_capacity:300 files);
          check
            (Printf.sprintf "server.coop.%s" p)
            (replay_server ~cooperative:true ~scheme:(Server_cache.Aggregating Config.default)
               ~filter_capacity:100 ~server_capacity:300 files);
          check
            (Printf.sprintf "server.plain.%s" p)
            (replay_server ~cooperative:false ~scheme:(Server_cache.Plain Cache.Lru)
               ~filter_capacity:100 ~server_capacity:300 files);
        ]
      in
      let invariants =
        [
          check0
            (Printf.sprintf "inv.conservation.%s" p)
            (Array.length files)
            (invariant_conservation ~config:Config.default ~capacity:200 files);
          check0
            (Printf.sprintf "inv.belady.%s" p)
            (Array.length files)
            (invariant_belady ~capacity files);
          check0
            (Printf.sprintf "inv.group1-lru.%s" p)
            (Array.length files)
            (invariant_group1_lru ~capacity files);
        ]
      in
      replays @ clients @ servers @ invariants)
    Profile.all
