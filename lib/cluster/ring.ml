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

let build ~seed ~points_per_node members =
  let base = Prng.create ~seed () in
  let members = List.sort_uniq Int.compare members in
  let count = List.length members in
  let n = count * points_per_node in
  (* Point [index] of [node] sits at the first draw of [derive (derive
     base node) index]: one derived stream per node, then one
     [derive_draw] per point. *)
  let positions = Array.make n 0 and nodes = Array.make n 0 in
  List.iteri
    (fun m node ->
      let stream = Prng.derive base node in
      for index = 0 to points_per_node - 1 do
        positions.((m * points_per_node) + index) <- Prng.derive_draw stream index;
        nodes.((m * points_per_node) + index) <- node
      done)
    members;
  (* the smallest power of two at or above the point count: under a
     uniform hash a bucket holds at most one point on average *)
  let bits = ref 0 in
  while 1 lsl !bits < n do
    incr bits
  done;
  let buckets = 1 lsl !bits in
  let bucket_shift = 62 - !bits in
  (* A counting sort by bucket: count each bucket's points, turn the
     counts into each bucket's end, then place the points from the last
     down, which leaves [guide.(b)] at bucket [b]'s start (the next
     bucket's when [b] is empty) and each bucket in build order. *)
  let guide = Array.make (buckets + 1) 0 in
  for i = 0 to n - 1 do
    let b = positions.(i) lsr bucket_shift in
    guide.(b) <- guide.(b) + 1
  done;
  for b = 1 to buckets - 1 do
    guide.(b) <- guide.(b) + guide.(b - 1)
  done;
  guide.(buckets) <- n;
  let points = Array.make n 0 and owners = Array.make n 0 in
  for i = n - 1 downto 0 do
    let b = positions.(i) lsr bucket_shift in
    let j = guide.(b) - 1 in
    guide.(b) <- j;
    points.(j) <- positions.(i);
    owners.(j) <- nodes.(i)
  done;
  (* Then a stable insertion sort of each bucket by (position, node). *)
  for b = 0 to buckets - 1 do
    let first = guide.(b) in
    for j = first + 1 to guide.(b + 1) - 1 do
      let p = points.(j) and o = owners.(j) in
      let k = ref (j - 1) in
      while !k >= first && (points.(!k) > p || (points.(!k) = p && owners.(!k) > o)) do
        points.(!k + 1) <- points.(!k);
        owners.(!k + 1) <- owners.(!k);
        decr k
      done;
      points.(!k + 1) <- p;
      owners.(!k + 1) <- o
    done
  done;
  {
    seed;
    points_per_node;
    members;
    count;
    points;
    owners;
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

(* The first draw of [Prng.derive t.file_stream file], without building
   the derived generator. *)
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

let point_of t file = successor_index t (file_position t file)
let point_count t = Array.length t.points
let owner t file = t.owners.(point_of t file)

(* The clockwise walk from ring point [start]. A walk meets every member
   within one revolution, so [start + offset] stays below twice the point
   count and one subtraction wraps it. *)
let owner_at t ~start offset =
  let i = start + offset in
  let n = Array.length t.owners in
  t.owners.(if i >= n then i - n else i)

(* Is [node] among [buf.(i) .. buf.(n - 1)]? *)
let rec mem_prefix (buf : int array) n (node : int) i =
  i < n && (buf.(i) = node || mem_prefix buf n node (i + 1))

(* Appends owners from step [offset] on to the [n] distinct ones already
   in [buf] until it holds [want]. Every step before [offset] met a node
   now in [buf], so a node is new exactly when [buf] lacks it: groups are
   a few nodes long, so rescanning them is cheaper than carrying a set,
   and the walk builds nothing. *)
let rec collect_into t ~start ~want buf n offset =
  if n = want then n
  else
    let node = owner_at t ~start offset in
    if mem_prefix buf n node 0 then collect_into t ~start ~want buf n (offset + 1)
    else begin
      buf.(n) <- node;
      collect_into t ~start ~want buf (n + 1) (offset + 1)
    end

let point_group_into t ~replicas point buf =
  if replicas <= 0 then invalid_arg "Ring.point_group_into: replicas must be positive";
  if point < 0 || point >= Array.length t.points then
    invalid_arg "Ring.point_group_into: point out of range";
  let want = Int.min replicas t.count in
  if Array.length buf < want then
    invalid_arg "Ring.point_group_into: buffer shorter than the group";
  collect_into t ~start:point ~want buf 0 0

let group_into t ~replicas file buf =
  if replicas <= 0 then invalid_arg "Ring.group_into: replicas must be positive";
  let want = Int.min replicas t.count in
  if Array.length buf < want then invalid_arg "Ring.group_into: buffer shorter than the group";
  collect_into t ~start:(point_of t file) ~want buf 0 0

let group t ~replicas file =
  if replicas <= 0 then invalid_arg "Ring.group: replicas must be positive";
  let buf = Array.make (Int.min replicas t.count) 0 in
  ignore (group_into t ~replicas file buf);
  Array.to_list buf
