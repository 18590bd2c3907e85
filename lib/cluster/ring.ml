module Prng = Agg_util.Prng

type t = {
  seed : int;
  points_per_node : int;
  members : int list;
  count : int;  (* [List.length members] *)
  points : int array;
  owners : int array;
  (* Parent stream for per-file hashes; [Prng.derive] never advances it,
     so sharing one value keeps [owner]/[group] pure. Stream index -1 is
     reserved for files, node ids (>= 0) index the point streams. *)
  file_stream : Prng.t;
}

let mask62 bits = Int64.to_int (Int64.shift_right_logical bits 2)

let point_position base ~node ~index =
  mask62 (Prng.bits64 (Prng.derive (Prng.derive base node) index))

let build ~seed ~points_per_node members =
  let base = Prng.create ~seed () in
  let pairs =
    List.concat_map
      (fun node ->
        List.init points_per_node (fun index -> (point_position base ~node ~index, node)))
      members
  in
  let arr = Array.of_list pairs in
  Array.sort compare arr;
  let members = List.sort_uniq compare members in
  {
    seed;
    points_per_node;
    members;
    count = List.length members;
    points = Array.map fst arr;
    owners = Array.map snd arr;
    file_stream = Prng.derive base (-1);
  }

let create ?(points_per_node = 64) ~seed ~nodes () =
  if nodes <= 0 then invalid_arg "Ring.create: nodes must be positive";
  if points_per_node <= 0 then invalid_arg "Ring.create: points_per_node must be positive";
  build ~seed ~points_per_node (List.init nodes Fun.id)

let seed t = t.seed
let points_per_node t = t.points_per_node
let members t = t.members
let node_count t = t.count
let contains t node = List.mem node t.members

let add t node =
  if node < 0 then invalid_arg "Ring.add: node must be non-negative";
  if contains t node then invalid_arg (Printf.sprintf "Ring.add: node %d already a member" node);
  build ~seed:t.seed ~points_per_node:t.points_per_node (node :: t.members)

let remove t node =
  if not (contains t node) then
    invalid_arg (Printf.sprintf "Ring.remove: node %d is not a member" node);
  if node_count t = 1 then invalid_arg "Ring.remove: cannot remove the last member";
  build ~seed:t.seed ~points_per_node:t.points_per_node
    (List.filter (fun m -> m <> node) t.members)

(* [mask62 (Prng.bits64 (Prng.derive t.file_stream file))], without
   building the derived generator. *)
let file_position t file = Prng.derive_draw t.file_stream file

(* Index of the first point at or after [position], wrapping to 0. *)
let successor_index t position =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.points.(mid) >= position then hi := mid else lo := mid + 1
  done;
  if !lo = n then 0 else !lo

let owner t file = t.owners.(successor_index t (file_position t file))

(* The clockwise walk from ring point [start]. A node is new at step
   [offset] unless an earlier step of the same walk met it: groups are a
   few nodes long, so rescanning those steps is cheaper than carrying a
   set, and the walk builds nothing. *)
let owner_at t ~start offset = t.owners.((start + offset) mod Array.length t.points)

let rec met_before t ~start ~offset node i =
  i < offset && (owner_at t ~start i = node || met_before t ~start ~offset node (i + 1))

(* The first [want] distinct owners from [offset] on, primary first. *)
let rec collect t ~start ~want offset =
  if want = 0 then []
  else
    let node = owner_at t ~start offset in
    if met_before t ~start ~offset node 0 then collect t ~start ~want (offset + 1)
    else node :: collect t ~start ~want:(want - 1) (offset + 1)

let group t ~replicas file =
  if replicas <= 0 then invalid_arg "Ring.group: replicas must be positive";
  collect t
    ~start:(successor_index t (file_position t file))
    ~want:(min replicas t.count) 0

(* Is [node] among the first [want] distinct owners from [offset] on? *)
let rec reaches t ~start ~want ~node offset =
  let o = owner_at t ~start offset in
  o = node
  || (if met_before t ~start ~offset o 0 then reaches t ~start ~want ~node (offset + 1)
      else want > 1 && reaches t ~start ~want:(want - 1) ~node (offset + 1))

let in_group t ~replicas ~node file =
  if replicas <= 0 then invalid_arg "Ring.in_group: replicas must be positive";
  reaches t
    ~start:(successor_index t (file_position t file))
    ~want:(min replicas t.count) ~node 0

let pp ppf t =
  Format.fprintf ppf "ring[seed=%d nodes=%a points=%d]" t.seed
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    t.members (Array.length t.points)
