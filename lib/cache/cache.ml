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

type weighted_stats = {
  bytes_accessed : int;
  bytes_hit : int;
  cost_fetched : int;
  cost_prefetched : int;
}

(* The policy under the facade. The ten built-in kinds are lifted cores,
   called through [Lift] directly; a natively weighted policy given to
   [of_policy] is called through its first-class module. Either way an
   operation crosses one indirect call: into the core, or into the
   policy. *)
type engine =
  | Lifted : 'c Lift.t -> engine
  | Native : (module Policy.S with type t = 'a) * 'a -> engine

(* Counters live as mutable fields — the exposed [stats] record is only
   materialized on demand, so the access path allocates nothing. *)
type t = {
  kind : kind option;
  name : string;
  engine : engine;
  capacity : int;
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

let make_engine kind ~capacity =
  match kind with
  | Lru -> Lifted (Lru.create ~capacity)
  | Lfu -> Lifted (Lfu.create ~capacity)
  | Fifo -> Lifted (Fifo.create ~capacity)
  | Mru -> Lifted (Mru.create ~capacity)
  | Clock -> Lifted (Clock.create ~capacity)
  | Random -> Lifted (Random_policy.create ~capacity)
  | Mq -> Lifted (Mq.create ~capacity)
  | Slru -> Lifted (Slru.create ~capacity)
  | Twoq -> Lifted (Twoq.create ~capacity)
  | Arc -> Lifted (Arc.create ~capacity)

let make ~kind ~name ~engine ~capacity ~weight_of =
  {
    kind;
    name;
    engine;
    capacity;
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
  make ~kind:(Some kind) ~name:(kind_name kind) ~engine:(make_engine kind ~capacity) ~capacity
    ~weight_of

let of_policy (type a) ?weight_of (module P : Policy.S with type t = a) state =
  make ~kind:None ~name:P.policy_name
    ~engine:(Native ((module P), state))
    ~capacity:(P.capacity state) ~weight_of

(* Victims of an insertion reach the observer through the policy's sink;
   the room a group admission makes is reported here. *)
let set_on_evict t f =
  t.on_evict <- Some f;
  match t.engine with
  | Lifted l -> Lift.set_sink l f
  | Native ((module P), state) -> P.set_sink state f

let kind t = t.kind
let name t = t.name

let weight_for t key =
  match t.weight_of with None -> Policy.unit_weight | Some f -> f key

let capacity t = t.capacity

let size t =
  match t.engine with Lifted l -> Lift.size l | Native ((module P), state) -> P.size state

let used t =
  match t.engine with Lifted l -> Lift.used l | Native ((module P), state) -> P.used state

let mem t key =
  match t.engine with
  | Lifted l -> Lift.mem l key
  | Native ((module P), state) -> P.mem state key

(* Admits a key known not to be resident; the number of victims. *)
let admit t ~pos ~weight key =
  match t.engine with
  | Lifted l -> Lift.admit l ~pos ~weight key
  | Native ((module P), state) -> P.admit state ~pos ~weight key

let evict t =
  match t.engine with Lifted l -> Lift.evict l | Native ((module P), state) -> P.evict state

(* A non-resident key is admitted exactly when it fits the whole cache
   (the oversize-bypass rule of [Policy.S.insert]). *)
let admits t (w : Policy.weight) = w.size <= t.capacity

(* The miss half of [access], kept out of its hit path. *)
let miss t key (w : Policy.weight) =
  let evicted = admit t ~pos:Policy.Hot ~weight:w key in
  t.misses <- t.misses + 1;
  t.cost_fetched <- t.cost_fetched + w.cost;
  if admits t w then t.insertions <- t.insertions + 1;
  t.evictions <- t.evictions + evicted;
  false

let access t key =
  t.accesses <- t.accesses + 1;
  (* [weight_for], spelled out: the compiler would call it *)
  let w = match t.weight_of with None -> Policy.unit_weight | Some f -> f key in
  t.bytes_accessed <- t.bytes_accessed + w.size;
  let hit =
    match t.engine with
    | Lifted l -> Lift.hit l key ~cost:w.cost
    | Native ((module P), state) -> P.hit state key ~cost:w.cost
  in
  if hit then begin
    t.hits <- t.hits + 1;
    t.bytes_hit <- t.bytes_hit + w.size;
    true
  end
  else miss t key w

let insert_cold t key =
  if not (mem t key) then begin
    let w = weight_for t key in
    let evicted = admit t ~pos:Policy.Cold ~weight:w key in
    if admits t w then begin
      t.insertions <- t.insertions + 1;
      t.speculative_insertions <- t.speculative_insertions + 1;
      t.cost_prefetched <- t.cost_prefetched + w.Policy.cost
    end;
    t.evictions <- t.evictions + evicted
  end

(* Is [x] among [a.(i) .. a.(n - 1)]? *)
let rec mem_prefix (a : int array) n (x : int) i = i < n && (a.(i) = x || mem_prefix a n x (i + 1))

let insert_cold_into t keys ~pos ~len admitted =
  if pos < 0 || len < 0 || pos > Array.length keys - len then
    invalid_arg "Cache.insert_cold_into: slice out of bounds";
  if len > Array.length admitted then
    invalid_arg "Cache.insert_cold_into: admitted buffer shorter than the slice";
  (* One pass admits the distinct, non-resident members while their
     cumulative size fits in [capacity - 1], so the block cannot fill the
     whole cache and displace the demanded file at the hot end. At unit
     weights this is the historical "at most capacity - 1 members" cap. A
     repeat of a skipped member stays out: the budget only shrinks.
     Groups are a handful of keys (g <= 10 in every experiment), so a
     linear scan of the admitted members beats a scratch table. *)
  let budget = ref (t.capacity - 1) in
  let n = ref 0 in
  for i = pos to pos + len - 1 do
    let k = keys.(i) in
    if not (mem_prefix admitted !n k 0 || mem t k) then begin
      let s = (weight_for t k).Policy.size in
      if s <= !budget then begin
        budget := !budget - s;
        admitted.(!n) <- k;
        incr n
      end
    end
  done;
  let n = !n in
  let total = t.capacity - 1 - !budget in
  (* Room for the whole block is made first, so members never evict one
     another — the semantics of a group arriving in one retrieval. *)
  let evicted = ref 0 in
  let room = ref true in
  while !room && total > t.capacity - used t do
    let victim = evict t in
    if victim < 0 then room := false
    else begin
      incr evicted;
      match t.on_evict with Some f -> f victim | None -> ()
    end
  done;
  for i = 0 to n - 1 do
    let k = admitted.(i) in
    let w = weight_for t k in
    t.cost_prefetched <- t.cost_prefetched + w.Policy.cost;
    (* a member can still shed a resident (ARC under directory pressure);
       the policy's sink reports it *)
    evicted := !evicted + admit t ~pos:Policy.Cold ~weight:w k
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

(* A resident key is repositioned hot: for a lifted core that is its hit;
   a native policy's hit would also re-credit it, so it is promoted. *)
let insert_hot t key =
  let resident =
    match t.engine with
    | Lifted l -> Lift.hit l key ~cost:1
    | Native ((module P), state) ->
        P.mem state key
        && begin
             P.promote state key;
             true
           end
  in
  if not resident then begin
    let w = weight_for t key in
    let evicted = admit t ~pos:Policy.Hot ~weight:w key in
    if admits t w then begin
      t.insertions <- t.insertions + 1;
      t.evictions <- t.evictions + evicted
    end
  end

let remove t key =
  match t.engine with
  | Lifted l -> Lift.remove l key
  | Native ((module P), state) -> P.remove state key

let contents t =
  match t.engine with
  | Lifted l -> Lift.contents l
  | Native ((module P), state) -> P.contents state

let depth t key =
  if not (mem t key) then None
  else
    let rec scan i = function
      | [] -> None
      | k :: _ when k = key -> Some i
      | _ :: rest -> scan (i + 1) rest
    in
    scan 0 (contents t)

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
  (match t.engine with
  | Lifted l -> Lift.clear l
  | Native ((module P), state) -> P.clear state);
  reset_stats t
