module Policy = Agg_cache.Policy

(* Only non-unit entries are stored: absent means unit weight, so the
   table for a fully unit-weighted trace is empty and serialisation is
   canonical (no distinction between "declared unit" and "undeclared"). *)
type t = (File_id.t, Policy.weight) Hashtbl.t

let create () = Hashtbl.create 64

let set t file w =
  Policy.check_weight ~who:"Weights.set" w;
  if file < 0 then invalid_arg "Weights.set: file id must be non-negative";
  if Policy.is_unit w then Hashtbl.remove t file else Hashtbl.replace t file w

let find t file = Hashtbl.find_opt t file
let get t file = match find t file with Some w -> w | None -> Policy.unit_weight
let count = Hashtbl.length
let is_unit t = Hashtbl.length t = 0

let to_alist t =
  Hashtbl.fold (fun file w acc -> (file, w) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let of_alist entries =
  let t = create () in
  List.iter (fun (file, w) -> set t file w) entries;
  t
