(* [order] is a permutation of every handle: positions [0, length) hold
   the heap proper, positions [length, slots) the free handles, so a push
   takes the handle parked at [order.(length)] and a remove parks the
   removed handle at the old last position. [pos] is [order]'s inverse.
   Sifts move a hole instead of swapping. *)

type handle = int

let nil = -1

type t = {
  mutable order : int array; (* position -> handle *)
  mutable pos : int array; (* handle -> position *)
  mutable prio : float array; (* handle -> priority *)
  mutable stamps : int array; (* handle -> tie-break stamp *)
  mutable values : int array; (* handle -> payload *)
  mutable length : int;
  floor : float array; (* the rent floor, one unboxed cell *)
}

let create ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Heap.create: capacity must be positive";
  {
    order = Array.init capacity Fun.id;
    pos = Array.init capacity Fun.id;
    prio = Array.make capacity 0.0;
    stamps = Array.make capacity 0;
    values = Array.make capacity 0;
    length = 0;
    floor = [| 0.0 |];
  }

let length t = t.length
let is_empty t = t.length = 0
let slots t = Array.length t.order
let top t = if t.length = 0 then nil else t.order.(0)
let value t h = t.values.(h)
let priority t h = t.prio.(h)
let stamp t h = t.stamps.(h)

let less t a b =
  let pa = t.prio.(a) and pb = t.prio.(b) in
  pa < pb || (pa = pb && t.stamps.(a) < t.stamps.(b))

let place t h i =
  t.order.(i) <- h;
  t.pos.(h) <- i

(* Moves the hole at [i] up until [h] fits, then drops [h] into it. *)
let rec sift_up t h i =
  if i = 0 then place t h 0
  else begin
    let parent = (i - 1) / 2 in
    let ph = t.order.(parent) in
    if less t h ph then begin
      place t ph i;
      sift_up t h parent
    end
    else place t h i
  end

let rec sift_down t h i =
  let l = (2 * i) + 1 in
  if l >= t.length then place t h i
  else begin
    let r = l + 1 in
    let c = if r < t.length && less t t.order.(r) t.order.(l) then r else l in
    let ch = t.order.(c) in
    if less t ch h then begin
      place t ch i;
      sift_down t h c
    end
    else place t h i
  end

(* Restores the heap around [h], which sits at position [i] with a new
   key. *)
let resift t h i =
  if i > 0 && less t h t.order.((i - 1) / 2) then sift_up t h i else sift_down t h i

(* Doubles every array in one allocation each. The copies are typed
   loops: on an [int array] or a [float array] they compile to plain
   stores, where [Array.append] builds a temporary and [Array.blit] into
   a major-heap array pays a [caml_modify] per element. *)
let grow t =
  let n = Array.length t.order in
  let cap = 2 * n in
  let extend (a : int array) =
    let b = Array.make cap 0 in
    for i = 0 to n - 1 do
      b.(i) <- a.(i)
    done;
    b
  in
  let order = extend t.order and pos = extend t.pos in
  (* the new handles n .. 2n-1 park at the new positions n .. 2n-1 *)
  for i = n to cap - 1 do
    order.(i) <- i;
    pos.(i) <- i
  done;
  let prio = Array.make cap 0.0 in
  for i = 0 to n - 1 do
    prio.(i) <- t.prio.(i)
  done;
  t.order <- order;
  t.pos <- pos;
  t.prio <- prio;
  t.stamps <- extend t.stamps;
  t.values <- extend t.values

let restamp t h ~stamp =
  t.stamps.(h) <- stamp;
  resift t h t.pos.(h)

(* The priority is computed in place, from ints and the floor cell: no
   float crosses a call, so none is boxed. *)
let push t ~cost ~size ~stamp v =
  if t.length = Array.length t.order then grow t;
  let i = t.length in
  let h = t.order.(i) in
  t.prio.(h) <- t.floor.(0) +. (float_of_int cost /. float_of_int size);
  t.stamps.(h) <- stamp;
  t.values.(h) <- v;
  t.length <- i + 1;
  sift_up t h i;
  h

let update t h ~cost ~size ~stamp =
  t.prio.(h) <- t.floor.(0) +. (float_of_int cost /. float_of_int size);
  t.stamps.(h) <- stamp;
  resift t h t.pos.(h)

let raise_floor t h = t.floor.(0) <- t.prio.(h)

let remove t h =
  let i = t.pos.(h) in
  let last = t.length - 1 in
  let moved = t.order.(last) in
  t.length <- last;
  place t h last;
  if i < last then resift t moved i

let clear t =
  t.length <- 0;
  t.floor.(0) <- 0.0

let iter t f =
  for i = 0 to t.length - 1 do
    f t.order.(i)
  done
