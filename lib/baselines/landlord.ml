open Agg_util
module Policy = Agg_cache.Policy

(* One heap element per resident, its payload the key, keyed by
   (H = L + cost/size, recency stamp); the heap keeps L as its rent
   floor, so no priority is computed here. Hot placements take increasing
   stamps and cold placements decreasing ones, so stamp order is the
   recency order (hot end = largest stamp) and the heap minimum is the
   minimal-H resident nearest the cold end — exactly the victim of a
   hot-to-cold scan keeping the last minimum. [sizes] is indexed by heap
   handle, which is stable while the key is resident. *)
type t = {
  cap : int;
  heap : Heap.t;
  index : Int_table.t; (* key -> heap handle *)
  mutable sizes : int array; (* handle -> size *)
  mutable hot : int; (* next hot stamp, counting up from 0 *)
  mutable cold : int; (* next cold stamp, counting down from -1 *)
  mutable used : int;
  mutable sink : int -> unit;
}

let policy_name = "landlord"

let create ~capacity =
  if capacity <= 0 then invalid_arg "Landlord.create: capacity must be positive";
  let heap = Heap.create ~capacity:(Policy.presize capacity) () in
  {
    cap = capacity;
    heap;
    index = Int_table.create ();
    sizes = Array.make (Heap.slots heap) 1;
    hot = 0;
    cold = -1;
    used = 0;
    sink = Policy.drop_victim;
  }

let capacity t = t.cap
let size t = Heap.length t.heap
let used t = t.used
let mem t key = Int_table.get t.index key >= 0
let set_sink t f = t.sink <- f
let sink t = t.sink

let next_stamp t = function
  | Policy.Hot ->
      let s = t.hot in
      t.hot <- s + 1;
      s
  | Policy.Cold ->
      let s = t.cold in
      t.cold <- s - 1;
      s

let reposition t h pos = Heap.restamp t.heap h ~stamp:(next_stamp t pos)

let promote t key =
  let h = Int_table.get t.index key in
  if h >= 0 then reposition t h Policy.Hot

let charge t key ~cost =
  if cost <= 0 then invalid_arg "Landlord.charge: cost must be positive";
  let h = Int_table.get t.index key in
  if h >= 0 then
    Heap.update t.heap h ~cost ~size:t.sizes.(h) ~stamp:(Heap.stamp t.heap h)

(* [promote] then [charge] as one re-key: the new priority with a fresh
   hot stamp. *)
let hit t key ~cost =
  if cost <= 0 then invalid_arg "Landlord.hit: cost must be positive";
  let h = Int_table.get t.index key in
  if h < 0 then false
  else begin
    Heap.update t.heap h ~cost ~size:t.sizes.(h) ~stamp:(next_stamp t Policy.Hot);
    true
  end

let drop t h key =
  t.used <- t.used - t.sizes.(h);
  Heap.remove t.heap h;
  Int_table.remove t.index key

(* Evicts the heap minimum, raising L to its H; the caller guarantees a
   resident. *)
let evict_top t =
  let h = Heap.top t.heap in
  let key = Heap.value t.heap h in
  Heap.raise_floor t.heap h;
  drop t h key;
  key

let evict t = if Heap.is_empty t.heap then -1 else evict_top t

let check_weight (w : Policy.weight) =
  if w.size <= 0 || w.cost <= 0 then Policy.check_weight ~who:policy_name w

(* [admit] once the weight is checked. *)
let admit_checked t ~pos ~(weight : Policy.weight) key =
  if weight.size > t.cap then 0
  else begin
    let evicted = ref 0 in
    (* [cap - used] cannot overflow, whatever the capacity *)
    while weight.size > t.cap - t.used do
      t.sink (evict_top t);
      incr evicted
    done;
    let h =
      Heap.push t.heap ~cost:weight.cost ~size:weight.size ~stamp:(next_stamp t pos) key
    in
    if h >= Array.length t.sizes then begin
      (* a typed copy: plain stores, no [caml_modify] per element *)
      let sizes = Array.make (Heap.slots t.heap) 1 in
      for i = 0 to Array.length t.sizes - 1 do
        sizes.(i) <- t.sizes.(i)
      done;
      t.sizes <- sizes
    end;
    t.sizes.(h) <- weight.size;
    Int_table.set t.index key h;
    t.used <- t.used + weight.size;
    !evicted
  end

let admit t ~pos ~weight key =
  check_weight weight;
  admit_checked t ~pos ~weight key

let insert t ~pos ~weight key =
  check_weight weight;
  let h = Int_table.get t.index key in
  if h >= 0 then begin
    (* reposition only; priority and recorded size are untouched *)
    reposition t h pos;
    0
  end
  else admit_checked t ~pos ~weight key

let remove t key =
  let h = Int_table.get t.index key in
  if h >= 0 then drop t h key

(* Hot end first: residents by descending stamp. *)
let contents t =
  let handles = ref [] in
  Heap.iter t.heap (fun h -> handles := h :: !handles);
  List.sort (fun a b -> Int.compare (Heap.stamp t.heap b) (Heap.stamp t.heap a)) !handles
  |> List.map (Heap.value t.heap)

let clear t =
  Heap.clear t.heap;
  Int_table.clear t.index;
  t.hot <- 0;
  t.cold <- -1;
  t.used <- 0
