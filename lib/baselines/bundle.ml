module Policy = Agg_cache.Policy

(* The bundle policy is Landlord's rent mechanics with one extra entry
   point: a whole (deduplicated) bundle served in a single call, with
   every member's credit refreshed — resident or just fetched — so
   co-requested files stay resident as a unit. *)
type t = Landlord.t

let policy_name = "bundle"
let create = Landlord.create
let capacity = Landlord.capacity
let size = Landlord.size
let used = Landlord.used
let mem = Landlord.mem
let hit = Landlord.hit
let promote = Landlord.promote
let set_sink = Landlord.set_sink
let charge = Landlord.charge
let evict = Landlord.evict
let remove = Landlord.remove
let contents = Landlord.contents
let clear = Landlord.clear

let check_weight (w : Policy.weight) =
  if w.size <= 0 || w.cost <= 0 then Policy.check_weight ~who:policy_name w

let insert t ~pos ~weight key =
  check_weight weight;
  Landlord.insert t ~pos ~weight key

let admit t ~pos ~weight key =
  check_weight weight;
  Landlord.admit t ~pos ~weight key

(* Is [x] among the first [i] members of [keys]? Bundles are a handful of
   keys, so a scan of the prefix beats a table. *)
let rec seen_before (x : int) keys i =
  match keys with [] -> false | y :: rest -> i > 0 && (y = x || seen_before x rest (i - 1))

let request_bundle t ~weight_of keys =
  (* first occurrence of each member wins, in request order; victims go
     to the sink as well as into the returned list *)
  let victims = ref [] in
  let sink = Landlord.sink t in
  Landlord.set_sink t (fun v ->
      sink v;
      victims := v :: !victims);
  Fun.protect
    ~finally:(fun () -> Landlord.set_sink t sink)
    (fun () ->
      List.iteri
        (fun i k ->
          if not (seen_before k keys i) then begin
            let w : Policy.weight = weight_of k in
            if not (hit t k ~cost:w.cost) then ignore (admit t ~pos:Policy.Hot ~weight:w k)
          end)
        keys);
  List.rev !victims
