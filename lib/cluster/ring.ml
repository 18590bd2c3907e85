module Prng = Agg_util.Prng

type t = {
  seed : int;
  points_per_node : int;
  members : int list;
  count : int;  (* [List.length members] *)
  points : int array;
  owners : int array;
  (* The guide table: [guide.(b)] is the index of the first point at or
     after the start of bucket [b], the [b]-th of [Array.length guide - 1]
     equal slices of the 62-bit position space; the last entry is the
     point count. A position's bucket is its top bits, [position lsr
     bucket_shift]. *)
  guide : int array;
  bucket_shift : int;
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
  Array.sort
    (fun (p, n) (p', n') -> match Int.compare p p' with 0 -> Int.compare n n' | c -> c)
    arr;
  let members = List.sort_uniq Int.compare members in
  let points = Array.map fst arr in
  let n = Array.length points in
  (* the smallest power of two at or above the point count: under a
     uniform hash a bucket holds at most one point on average *)
  let bits = ref 0 in
  while 1 lsl !bits < n do
    incr bits
  done;
  let buckets = 1 lsl !bits in
  let bucket_shift = 62 - !bits in
  let guide = Array.make (buckets + 1) n in
  for i = n - 1 downto 0 do
    guide.(points.(i) lsr bucket_shift) <- i
  done;
  (* an empty bucket's first point at or after its start is the next
     bucket's *)
  for b = buckets - 1 downto 0 do
    guide.(b) <- Int.min guide.(b) guide.(b + 1)
  done;
  {
    seed;
    points_per_node;
    members;
    count = List.length members;
    points;
    owners = Array.map snd arr;
    guide;
    bucket_shift;
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
let contains t node = List.exists (Int.equal node) t.members

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

(* Index of the first point at or after [position], wrapping to 0. Every
   point before [position]'s bucket lies below it and every point from the
   next bucket on lies above it, so the search starts at the bucket's
   guide entry and never passes the next one. *)
let successor_index t position =
  let b = position lsr t.bucket_shift in
  let lo = ref t.guide.(b) and hi = ref t.guide.(b + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.points.(mid) >= position then hi := mid else lo := mid + 1
  done;
  if !lo = Array.length t.points then 0 else !lo

let owner t file = t.owners.(successor_index t (file_position t file))

(* The clockwise walk from ring point [start]. A node is new at step
   [offset] unless an earlier step of the same walk met it: groups are a
   few nodes long, so rescanning those steps is cheaper than carrying a
   set, and the walk builds nothing. A walk meets every member within
   one revolution, so [start + offset] stays below twice the point count
   and one subtraction wraps it. *)
let owner_at t ~start offset =
  let i = start + offset in
  let n = Array.length t.owners in
  t.owners.(if i >= n then i - n else i)

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
    ~want:(Int.min replicas t.count) 0

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
    ~want:(Int.min replicas t.count) ~node 0

let pp ppf t =
  Format.fprintf ppf "ring[seed=%d nodes=%a points=%d]" t.seed
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    t.members (Array.length t.points)
