type kind = Lru | Lfu | Fifo | Mru | Clock | Random | Mq | Slru | Twoq | Arc

let kind_name = function
  | Lru -> "lru"
  | Lfu -> "lfu"
  | Fifo -> "fifo"
  | Mru -> "mru"
  | Clock -> "clock"
  | Random -> "random"
  | Mq -> "mq"
  | Slru -> "slru"
  | Twoq -> "2q"
  | Arc -> "arc"

let kind_of_string = function
  | "lru" -> Some Lru
  | "lfu" -> Some Lfu
  | "fifo" -> Some Fifo
  | "mru" -> Some Mru
  | "clock" -> Some Clock
  | "random" -> Some Random
  | "mq" -> Some Mq
  | "slru" -> Some Slru
  | "2q" | "twoq" -> Some Twoq
  | "arc" -> Some Arc
  | _ -> None

let all_kinds = [ Lru; Lfu; Fifo; Mru; Clock; Random; Mq; Slru; Twoq; Arc ]

type stats = {
  accesses : int;
  hits : int;
  misses : int;
  insertions : int;
  speculative_insertions : int;
  evictions : int;
}

let pp_stats ppf s =
  Format.fprintf ppf "accesses=%d hits=%d misses=%d insertions=%d speculative=%d evictions=%d"
    s.accesses s.hits s.misses s.insertions s.speculative_insertions s.evictions

type weighted_stats = {
  bytes_accessed : int;
  bytes_hit : int;
  cost_fetched : int;
  cost_prefetched : int;
}

type packed = Packed : (module Policy.S with type t = 'a) * 'a -> packed

(* Counters live as mutable fields — the exposed [stats] record is only
   materialized on demand, so the access path allocates nothing. *)
type t = {
  kind : kind option;
  name : string;
  packed : packed;
  weight_of : (int -> Policy.weight) option;
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable speculative_insertions : int;
  mutable evictions : int;
  mutable bytes_accessed : int;
  mutable bytes_hit : int;
  mutable cost_fetched : int;
  mutable cost_prefetched : int;
  mutable on_evict : (int -> unit) option;
}

let make_packed kind ~capacity =
  match kind with
  | Lru -> Packed ((module Lru), Lru.create ~capacity)
  | Lfu -> Packed ((module Lfu), Lfu.create ~capacity)
  | Fifo -> Packed ((module Fifo), Fifo.create ~capacity)
  | Mru -> Packed ((module Mru), Mru.create ~capacity)
  | Clock -> Packed ((module Clock), Clock.create ~capacity)
  | Random -> Packed ((module Random_policy), Random_policy.create ~capacity)
  | Mq -> Packed ((module Mq), Mq.create ~capacity)
  | Slru -> Packed ((module Slru), Slru.create ~capacity)
  | Twoq -> Packed ((module Twoq), Twoq.create ~capacity)
  | Arc -> Packed ((module Arc), Arc.create ~capacity)

let make ~kind ~name ~packed ~weight_of =
  {
    kind;
    name;
    packed;
    weight_of;
    accesses = 0;
    hits = 0;
    misses = 0;
    insertions = 0;
    speculative_insertions = 0;
    evictions = 0;
    bytes_accessed = 0;
    bytes_hit = 0;
    cost_fetched = 0;
    cost_prefetched = 0;
    on_evict = None;
  }

let create ?weight_of kind ~capacity =
  make ~kind:(Some kind) ~name:(kind_name kind) ~packed:(make_packed kind ~capacity) ~weight_of

let of_policy (type a) ?weight_of (module P : Policy.S with type t = a) state =
  make ~kind:None ~name:P.policy_name ~packed:(Packed ((module P), state)) ~weight_of

let set_on_evict t f = t.on_evict <- Some f

let notify_evicted t victims =
  match t.on_evict with Some f -> List.iter f victims | None -> ()

let notify_evict1 t victim = match t.on_evict with Some f -> f victim | None -> ()

let kind t = t.kind
let name t = t.name

let weight_for t key =
  match t.weight_of with None -> Policy.unit_weight | Some f -> f key

let capacity t =
  let (Packed ((module P), state)) = t.packed in
  P.capacity state

let size t =
  let (Packed ((module P), state)) = t.packed in
  P.size state

let used t =
  let (Packed ((module P), state)) = t.packed in
  P.used state

let mem t key =
  let (Packed ((module P), state)) = t.packed in
  P.mem state key

let raw_insert t ~pos ~weight key =
  let (Packed ((module P), state)) = t.packed in
  let victims = P.insert state ~pos ~weight key in
  notify_evicted t victims;
  victims

let access t key =
  let (Packed ((module P), state)) = t.packed in
  t.accesses <- t.accesses + 1;
  let w = weight_for t key in
  t.bytes_accessed <- t.bytes_accessed + w.Policy.size;
  if P.mem state key then begin
    P.promote state key;
    P.charge state key ~cost:w.Policy.cost;
    t.hits <- t.hits + 1;
    t.bytes_hit <- t.bytes_hit + w.Policy.size;
    true
  end
  else begin
    let evicted = raw_insert t ~pos:Policy.Hot ~weight:w key in
    t.misses <- t.misses + 1;
    t.cost_fetched <- t.cost_fetched + w.Policy.cost;
    if P.mem state key then t.insertions <- t.insertions + 1;
    t.evictions <- t.evictions + List.length evicted;
    false
  end

let insert_cold t key =
  if not (mem t key) then begin
    let w = weight_for t key in
    let evicted = raw_insert t ~pos:Policy.Cold ~weight:w key in
    if mem t key then begin
      t.insertions <- t.insertions + 1;
      t.speculative_insertions <- t.speculative_insertions + 1;
      t.cost_prefetched <- t.cost_prefetched + w.Policy.cost
    end;
    t.evictions <- t.evictions + List.length evicted
  end

(* Is [x] among [a.(i) .. a.(n - 1)]? *)
let rec mem_prefix (a : int array) n (x : int) i = i < n && (a.(i) = x || mem_prefix a n x (i + 1))

let insert_cold_into t keys ~pos ~len admitted =
  if pos < 0 || len < 0 || pos > Array.length keys - len then
    invalid_arg "Cache.insert_cold_into: slice out of bounds";
  if len > Array.length admitted then
    invalid_arg "Cache.insert_cold_into: admitted buffer shorter than the slice";
  let (Packed ((module P), state)) = t.packed in
  (* One pass admits the distinct, non-resident members while their
     cumulative size fits in [capacity - 1], so the block cannot fill the
     whole cache and displace the demanded file at the hot end. At unit
     weights this is the historical "at most capacity - 1 members" cap. A
     repeat of a skipped member stays out: the budget only shrinks.
     Groups are a handful of keys (g <= 10 in every experiment), so a
     linear scan of the admitted members beats a scratch table. *)
  let budget = ref (P.capacity state - 1) in
  let n = ref 0 in
  for i = pos to pos + len - 1 do
    let k = keys.(i) in
    if not (mem_prefix admitted !n k 0 || P.mem state k) then begin
      let s = (weight_for t k).Policy.size in
      if s <= !budget then begin
        budget := !budget - s;
        admitted.(!n) <- k;
        incr n
      end
    end
  done;
  let n = !n in
  let total = P.capacity state - 1 - !budget in
  (* Room for the whole block is made first, so members never evict one
     another — the semantics of a group arriving in one retrieval. *)
  let evicted = ref 0 in
  let room = ref true in
  while !room && P.used state + total > P.capacity state do
    let victim = P.evict state in
    if victim < 0 then room := false
    else begin
      incr evicted;
      notify_evict1 t victim
    end
  done;
  for i = 0 to n - 1 do
    let k = admitted.(i) in
    let w = weight_for t k in
    t.cost_prefetched <- t.cost_prefetched + w.Policy.cost;
    notify_evicted t (P.insert state ~pos:Policy.Cold ~weight:w k)
  done;
  t.insertions <- t.insertions + n;
  t.speculative_insertions <- t.speculative_insertions + n;
  t.evictions <- t.evictions + !evicted;
  n

let insert_cold_group t keys =
  let keys = Array.of_list keys in
  let admitted = Array.make (Array.length keys) 0 in
  let n = insert_cold_into t keys ~pos:0 ~len:(Array.length keys) admitted in
  Array.to_list (Array.sub admitted 0 n)

let insert_hot t key =
  let resident = mem t key in
  let evicted = raw_insert t ~pos:Policy.Hot ~weight:(weight_for t key) key in
  if not resident && mem t key then begin
    t.insertions <- t.insertions + 1;
    t.evictions <- t.evictions + List.length evicted
  end

let remove t key =
  let (Packed ((module P), state)) = t.packed in
  P.remove state key

let depth t key =
  let (Packed ((module P), state)) = t.packed in
  if not (P.mem state key) then None
  else
    let rec scan i = function
      | [] -> None
      | k :: _ when k = key -> Some i
      | _ :: rest -> scan (i + 1) rest
    in
    scan 0 (P.contents state)

let contents t =
  let (Packed ((module P), state)) = t.packed in
  P.contents state

let stats t =
  {
    accesses = t.accesses;
    hits = t.hits;
    misses = t.misses;
    insertions = t.insertions;
    speculative_insertions = t.speculative_insertions;
    evictions = t.evictions;
  }

let weighted_stats t =
  {
    bytes_accessed = t.bytes_accessed;
    bytes_hit = t.bytes_hit;
    cost_fetched = t.cost_fetched;
    cost_prefetched = t.cost_prefetched;
  }

let hit_rate t = if t.accesses = 0 then 0.0 else float_of_int t.hits /. float_of_int t.accesses

let byte_hit_rate t =
  if t.bytes_accessed = 0 then 0.0
  else float_of_int t.bytes_hit /. float_of_int t.bytes_accessed

let reset_stats t =
  t.accesses <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.insertions <- 0;
  t.speculative_insertions <- 0;
  t.evictions <- 0;
  t.bytes_accessed <- 0;
  t.bytes_hit <- 0;
  t.cost_fetched <- 0;
  t.cost_prefetched <- 0

let clear t =
  let (Packed ((module P), state)) = t.packed in
  P.clear state;
  reset_stats t
