module Prng = Agg_util.Prng
module Plan = Agg_faults.Plan
module Cache = Agg_cache.Cache

let is_valid t = match Scenario.validate t with () -> true | exception Invalid_argument _ -> false

let violates ?jobs ?events_cap t =
  match Exec.run ?jobs ?events_cap t with Ok o -> not o.Exec.pass | Error _ -> false

(* --- perturbation ----------------------------------------------------------- *)

let policy_palette =
  [|
    Scenario.Plain Cache.Lru;
    Scenario.Plain Cache.Arc;
    Scenario.Plain Cache.Clock;
    Scenario.Group 2;
    Scenario.Group 5;
    Scenario.Group 10;
  |]

let clamp_rate r = Float.max 0.0 (Float.min 1.0 r)

(* Every candidate is checked by [validate] before it is kept, so a
   perturbation that orphans an expectation or slo, or moves a swept
   field off its axis's first value, leaves the scenario as it was. *)
let perturb rng (t : Scenario.t) =
  let candidate =
    match Prng.int rng 8 with
    | 0 -> (
        (* reseed the workload *)
        match t.Scenario.workload with
        | Scenario.Profile p ->
            { t with Scenario.workload = Scenario.Profile { p with seed = Prng.int rng 1_000_000 } }
        | _ -> t)
    | 1 -> (
        (* resize the workload: 0.5x .. 2x, floor 100 *)
        match t.Scenario.workload with
        | Scenario.Profile p ->
            let events = max 100 (p.events / 2 * Prng.int_in_range rng ~lo:1 ~hi:4) in
            { t with Scenario.workload = Scenario.Profile { p with events } }
        | _ -> t)
    | 2 ->
        (* scale a fault rate *)
        let f = t.Scenario.faults in
        let faults =
          match Prng.int rng 4 with
          | 0 -> { f with Plan.loss_rate = clamp_rate (Prng.float rng 0.3) }
          | 1 ->
              { f with
                Plan.outage_period = 500 * Prng.int_in_range rng ~lo:1 ~hi:4;
                outage_rate = clamp_rate (Prng.float rng 0.3);
                outage_length = 50 * Prng.int_in_range rng ~lo:1 ~hi:4 }
          | 2 ->
              { f with
                Plan.slow_rate = clamp_rate (Prng.float rng 0.2);
                slow_multiplier = 1.0 +. Prng.float rng 4.0 }
          | _ -> { f with Plan.crash_rate = clamp_rate (Prng.float rng 0.005) }
        in
        { t with Scenario.faults = faults }
    | 3 -> (
        (* resize the fleet *)
        match t.Scenario.topology with
        | Scenario.Fleet f ->
            let clients = max 1 (f.clients / 2 * Prng.int_in_range rng ~lo:1 ~hi:4) in
            { t with Scenario.topology = Scenario.Fleet { f with clients } }
        | Scenario.Cluster c ->
            let clients = max 1 (c.clients / 2 * Prng.int_in_range rng ~lo:1 ~hi:4) in
            { t with Scenario.topology = Scenario.Cluster { c with clients } }
        | Scenario.Path _ -> t)
    | 4 ->
        (* add a palette policy not already present *)
        let missing =
          Array.to_list policy_palette
          |> List.filter (fun p ->
                 not
                   (List.exists
                      (fun q -> Scenario.policy_name q = Scenario.policy_name p)
                      t.Scenario.policies))
        in
        if missing = [] then t
        else
          let p = Prng.choose rng (Array.of_list missing) in
          { t with Scenario.policies = t.Scenario.policies @ [ p ] }
    | 5 ->
        (* drop a random policy (keep >= 1) *)
        let n = List.length t.Scenario.policies in
        if n <= 1 then t
        else
          let k = Prng.int rng n in
          { t with Scenario.policies = List.filteri (fun idx _ -> idx <> k) t.Scenario.policies }
    | 6 -> (
        (* reseed the fault plan *)
        let f = t.Scenario.faults in
        { t with Scenario.faults = { f with Plan.seed = Prng.int rng 1_000_000 } })
    | _ -> (
        (* reseed the ring (cluster) *)
        match t.Scenario.topology with
        | Scenario.Cluster c ->
            { t with Scenario.topology = Scenario.Cluster { c with ring_seed = Prng.int rng 1_000_000 } }
        | _ -> t)
  in
  if is_valid candidate then candidate else t

(* --- shrinking -------------------------------------------------------------- *)

(* The axis restricted to the values [keep] accepts, by index and label. *)
let filter_values keep sweep =
  let labels = Array.of_list (Scenario.sweep_labels sweep) in
  let pick l = List.filteri (fun k _ -> keep k labels.(k)) l in
  match sweep with
  | Scenario.Loss l -> Scenario.Loss (pick l)
  | Scenario.Outage_rate l -> Scenario.Outage_rate (pick l)
  | Scenario.Replicas l -> Scenario.Replicas (pick l)
  | Scenario.Placement l -> Scenario.Placement (pick l)
  | Scenario.Clients l -> Scenario.Clients (pick l)
  | Scenario.Server l -> Scenario.Server (pick l)
  | Scenario.Cost l -> Scenario.Cost (pick l)

(* Candidate reductions, in documented order. Only structurally smaller
   (or fault-free-er) scenarios are proposed; the caller keeps a
   candidate iff it is valid and still violates. *)
let reductions (t : Scenario.t) =
  let drop_each list rebuild =
    List.mapi (fun k _ -> rebuild (List.filteri (fun idx _ -> idx <> k) list)) list
  in
  let axis_steps = drop_each t.Scenario.sweeps (fun sweeps -> { t with Scenario.sweeps }) in
  (* halving keeps the first half, the base value first, and every value
     an ordering expectation names *)
  let halving_steps =
    List.filter_map
      (fun sweep ->
        let field = Scenario.sweep_field sweep in
        let named =
          List.concat_map
            (function
              | Scenario.Ordered o when o.field = field -> [ o.lhs; o.rhs ]
              | Scenario.Ordered _ | Scenario.Hit_rate_min _ | Scenario.Hit_rate_max _ -> [])
            t.Scenario.expectations
        in
        let half = List.length (Scenario.sweep_labels sweep) / 2 in
        let halved = filter_values (fun k label -> k < max 1 half || List.mem label named) sweep in
        if Scenario.sweep_labels halved = Scenario.sweep_labels sweep then None
        else
          Some
            { t with
              Scenario.sweeps =
                List.map (fun s -> if s == sweep then halved else s) t.Scenario.sweeps })
      t.Scenario.sweeps
  in
  let faults_steps =
    let f = t.Scenario.faults in
    (if f <> Plan.none then [ { t with Scenario.faults = Plan.none } ] else [])
    @ (if f.Plan.loss_rate > 0.0 then
         [ { t with Scenario.faults = { f with Plan.loss_rate = 0.0 } } ]
       else [])
    @ (if f.Plan.outage_rate > 0.0 then
         [ { t with Scenario.faults = { f with Plan.outage_rate = 0.0 } } ]
       else [])
    @ (if f.Plan.slow_rate > 0.0 then
         [ { t with Scenario.faults = { f with Plan.slow_rate = 0.0; slow_multiplier = 1.0 } } ]
       else [])
    @
    if f.Plan.crash_rate > 0.0 then
      [ { t with Scenario.faults = { f with Plan.crash_rate = 0.0 } } ]
    else []
  in
  let topology_steps =
    match t.Scenario.topology with
    | Scenario.Path _ -> []
    | Scenario.Fleet f ->
        if f.clients > 1 then
          [ { t with Scenario.topology = Scenario.Fleet { f with clients = max 1 (f.clients / 2) } } ]
        else []
    | Scenario.Cluster c ->
        (if c.churn <> [] then
           [ { t with Scenario.topology = Scenario.Cluster { c with churn = [] } } ]
         else [])
        @ (if c.clients > 1 then
             [ { t with
                 Scenario.topology = Scenario.Cluster { c with clients = max 1 (c.clients / 2) } } ]
           else [])
        @ (if c.nodes > 1 then
             [ { t with
                 Scenario.topology =
                   Scenario.Cluster
                     { c with nodes = max 1 (c.nodes / 2); replicas = min c.replicas (max 1 (c.nodes / 2)) } } ]
           else [])
        @
        if c.replicas > 1 then
          [ { t with Scenario.topology = Scenario.Cluster { c with replicas = max 1 (c.replicas / 2) } } ]
        else []
  in
  let events_steps =
    match t.Scenario.workload with
    | Scenario.Profile p when p.events > 100 ->
        [ { t with Scenario.workload = Scenario.Profile { p with events = max 100 (p.events / 2) } } ]
    | _ -> []
  in
  let policy_steps =
    if List.length t.Scenario.policies <= 1 then []
    else drop_each t.Scenario.policies (fun policies -> { t with Scenario.policies })
  in
  let invariant_steps =
    drop_each t.Scenario.invariants (fun invariants -> { t with Scenario.invariants })
  in
  let expectation_steps =
    drop_each t.Scenario.expectations (fun expectations -> { t with Scenario.expectations })
  in
  let slo_steps = drop_each t.Scenario.slos (fun slos -> { t with Scenario.slos }) in
  axis_steps @ halving_steps @ faults_steps @ topology_steps @ events_steps @ policy_steps
  @ invariant_steps @ expectation_steps @ slo_steps

let shrink ?jobs ?events_cap t =
  if not (violates ?jobs ?events_cap t) then t
  else
    let rec fixpoint t =
      let step =
        List.find_opt
          (fun candidate -> is_valid candidate && violates ?jobs ?events_cap candidate)
          (reductions t)
      in
      match step with None -> t | Some smaller -> fixpoint smaller
    in
    fixpoint t

(* --- the fuzz loop ----------------------------------------------------------- *)

type failure = { original : Scenario.t; shrunk : Scenario.t }
type report = { rounds : int; tested : int; failure : failure option }

let run ?jobs ?events_cap ~seed ~rounds base =
  let rng = Prng.create ~seed () in
  let rec loop round current tested =
    if round > rounds then { rounds; tested; failure = None }
    else
      let current = if round = 0 || round mod 8 = 0 then base else current in
      let candidate = if round = 0 then base else perturb rng current in
      if violates ?jobs ?events_cap candidate then
        { rounds;
          tested = tested + 1;
          failure = Some { original = candidate; shrunk = shrink ?jobs ?events_cap candidate } }
      else loop (round + 1) candidate (tested + 1)
  in
  loop 0 base 0
