type policy = Recency | Frequency

let policy_name = function Recency -> "lru" | Frequency -> "lfu"

(* [Recency] is an LRU list over successor ids. The capacity is a small
   constant (the paper explores k ≤ 10), so the list lives in a fixed int
   array, MRU first, and "move to front" is a few-word shift — no nodes,
   no hashing, no allocation.

   [Frequency] keeps the k *most frequent* successors seen so far, per the
   paper's description ("maintains a list of the most frequent
   successors"): full counts are remembered for every successor ever
   observed, and a newcomer enters the list only when its count overtakes
   the current minimum (most recent wins ties). This idealised frequency
   policy needs unbounded counters — which itself illustrates the paper's
   point that a small recency list is the cheaper *and* better choice. *)

type entry = { mutable count : int; mutable tick : int }

type t = {
  capacity : int;
  policy : policy;
  succs : int array; (* Recency only: most recent first, [len] live *)
  mutable len : int; (* Recency only *)
  counts : (int, entry) Hashtbl.t; (* Frequency only: all successors ever *)
  members : (int, unit) Hashtbl.t; (* Frequency only: the current top-k *)
  mutable clock : int;
}

let create ~capacity ~policy =
  if capacity <= 0 then invalid_arg "Successor_list.create: capacity must be positive";
  {
    capacity;
    policy;
    succs = (match policy with Recency -> Array.make capacity 0 | Frequency -> [||]);
    len = 0;
    counts = Hashtbl.create 16;
    members = Hashtbl.create (2 * capacity);
    clock = 0;
  }

let capacity t = t.capacity

let size t = match t.policy with Recency -> t.len | Frequency -> Hashtbl.length t.members

let find_recency t succ =
  let rec scan i = if i >= t.len then -1 else if t.succs.(i) = succ then i else scan (i + 1) in
  scan 0

let mem t succ =
  match t.policy with
  | Recency -> find_recency t succ >= 0
  | Frequency -> Hashtbl.mem t.members succ

(* Exposed for the per-file tracker, which stores many such lists in
   one array: move [succ] to the front of the region
   [slots.(off) .. slots.(off + len - 1)], evicting the last entry when a
   full region sees a newcomer. Returns the new live length. *)
let observe_slots (slots : int array) ~off ~len ~capacity (succ : int) =
  let at = ref 0 in
  while !at < len && slots.(off + !at) <> succ do
    incr at
  done;
  let resident = !at < len in
  for i = off + (if resident then !at else Int.min len (capacity - 1)) downto off + 1 do
    slots.(i) <- slots.(i - 1)
  done;
  slots.(off) <- succ;
  if resident then len else Int.min (len + 1) capacity

let observe_recency t succ = t.len <- observe_slots t.succs ~off:0 ~len:t.len ~capacity:t.capacity succ

(* The list member with the smallest (count, tick): the one a newcomer
   must beat. Linear in k, and k is at most ~10. *)
let weakest_member t =
  Hashtbl.fold
    (fun key () acc ->
      let entry = Hashtbl.find t.counts key in
      match acc with
      | None -> Some (key, entry)
      | Some (_, best) ->
          if entry.count < best.count || (entry.count = best.count && entry.tick < best.tick)
          then Some (key, entry)
          else acc)
    t.members None

let observe_frequency t succ =
  t.clock <- t.clock + 1;
  let entry =
    match Hashtbl.find_opt t.counts succ with
    | Some e ->
        e.count <- e.count + 1;
        e.tick <- t.clock;
        e
    | None ->
        let e = { count = 1; tick = t.clock } in
        Hashtbl.replace t.counts succ e;
        e
  in
  if not (Hashtbl.mem t.members succ) then
    if Hashtbl.length t.members < t.capacity then Hashtbl.replace t.members succ ()
    else
      match weakest_member t with
      | Some (victim, weakest)
        when entry.count > weakest.count
             || (entry.count = weakest.count && entry.tick > weakest.tick) ->
          Hashtbl.remove t.members victim;
          Hashtbl.replace t.members succ ()
      | Some _ | None -> ()

let observe t succ =
  match t.policy with Recency -> observe_recency t succ | Frequency -> observe_frequency t succ

let ranked t =
  match t.policy with
  | Recency ->
      let rec build i acc = if i < 0 then acc else build (i - 1) (t.succs.(i) :: acc) in
      build (t.len - 1) []
  | Frequency ->
      let all =
        Hashtbl.fold (fun key () acc -> (key, Hashtbl.find t.counts key) :: acc) t.members []
      in
      let cmp (_, a) (_, b) =
        match Int.compare b.count a.count with 0 -> Int.compare b.tick a.tick | c -> c
      in
      List.map fst (List.sort cmp all)

let top t =
  match t.policy with
  | Recency -> if t.len > 0 then Some t.succs.(0) else None
  | Frequency -> ( match ranked t with [] -> None | s :: _ -> Some s)
