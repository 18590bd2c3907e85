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
let promote = Landlord.promote
let charge = Landlord.charge
let evict = Landlord.evict
let remove = Landlord.remove
let contents = Landlord.contents
let clear = Landlord.clear

let insert t ~pos ~weight:(w : Policy.weight) key =
  Policy.check_weight ~who:policy_name w;
  Landlord.insert t ~pos ~weight:w key

let rec mem_int (x : int) = function [] -> false | y :: rest -> y = x || mem_int x rest

let request_bundle t ~weight_of keys =
  (* first occurrence of each member wins, in request order *)
  let members =
    List.rev (List.fold_left (fun acc k -> if mem_int k acc then acc else k :: acc) [] keys)
  in
  List.concat_map
    (fun k ->
      if mem t k then begin
        promote t k;
        charge t k ~cost:(weight_of k).Policy.cost;
        []
      end
      else insert t ~pos:Policy.Hot ~weight:(weight_of k) k)
    members
