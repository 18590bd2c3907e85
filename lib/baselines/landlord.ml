open Agg_util
module Policy = Agg_cache.Policy

(* One heap element per resident, its payload the key, keyed by
   (H = L + cost/size, recency stamp). Hot placements take increasing
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
  mutable inflation : float; (* L, non-decreasing *)
  mutable hot : int; (* next hot stamp, counting up from 0 *)
  mutable cold : int; (* next cold stamp, counting down from -1 *)
  mutable used : int;
}

let policy_name = "landlord"

let create ~capacity =
  if capacity <= 0 then invalid_arg "Landlord.create: capacity must be positive";
  let heap = Heap.create () in
  {
    cap = capacity;
    heap;
    index = Int_table.create ();
    sizes = Array.make (Heap.slots heap) 1;
    inflation = 0.0;
    hot = 0;
    cold = -1;
    used = 0;
  }

let capacity t = t.cap
let size t = Heap.length t.heap
let used t = t.used
let mem t key = Int_table.get t.index key >= 0

let next_stamp t = function
  | Policy.Hot ->
      let s = t.hot in
      t.hot <- s + 1;
      s
  | Policy.Cold ->
      let s = t.cold in
      t.cold <- s - 1;
      s

let priority t ~size ~cost = t.inflation +. (float_of_int cost /. float_of_int size)

let reposition t h pos =
  Heap.update t.heap h ~priority:(Heap.priority t.heap h) ~stamp:(next_stamp t pos)

let promote t key =
  let h = Int_table.get t.index key in
  if h >= 0 then reposition t h Policy.Hot

let charge t key ~cost =
  if cost <= 0 then invalid_arg "Landlord.charge: cost must be positive";
  let h = Int_table.get t.index key in
  if h >= 0 then
    Heap.update t.heap h
      ~priority:(priority t ~size:t.sizes.(h) ~cost)
      ~stamp:(Heap.stamp t.heap h)

let drop t h key =
  t.used <- t.used - t.sizes.(h);
  Heap.remove t.heap h;
  Int_table.remove t.index key

(* Evicts the heap minimum, raising L to its H; the caller guarantees a
   resident. *)
let evict_top t =
  let h = Heap.top t.heap in
  let key = Heap.value t.heap h in
  t.inflation <- Heap.priority t.heap h;
  drop t h key;
  key

let evict t = if Heap.is_empty t.heap then -1 else evict_top t

let insert t ~pos ~weight:(w : Policy.weight) key =
  Policy.check_weight ~who:policy_name w;
  let h = Int_table.get t.index key in
  if h >= 0 then begin
    (* reposition only; priority and recorded size are untouched *)
    reposition t h pos;
    []
  end
  else if w.Policy.size > t.cap then []
  else begin
    let victims = ref [] in
    (* [cap - used] cannot overflow, whatever the capacity *)
    while w.Policy.size > t.cap - t.used do
      victims := evict_top t :: !victims
    done;
    let h =
      Heap.push t.heap
        ~priority:(priority t ~size:w.Policy.size ~cost:w.Policy.cost)
        ~stamp:(next_stamp t pos) key
    in
    if h >= Array.length t.sizes then begin
      let sizes = Array.make (Heap.slots t.heap) 1 in
      Array.blit t.sizes 0 sizes 0 (Array.length t.sizes);
      t.sizes <- sizes
    end;
    t.sizes.(h) <- w.Policy.size;
    Int_table.set t.index key h;
    t.used <- t.used + w.Policy.size;
    List.rev !victims
  end

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
  t.inflation <- 0.0;
  t.hot <- 0;
  t.cold <- -1;
  t.used <- 0
