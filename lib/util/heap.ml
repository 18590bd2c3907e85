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

let grow t =
  let n = Array.length t.order in
  let extend a fill = Array.append a (Array.make n fill) in
  (* the new handles n .. 2n-1 park at the new positions n .. 2n-1 *)
  t.order <- Array.append t.order (Array.init n (fun i -> n + i));
  t.pos <- Array.append t.pos (Array.init n (fun i -> n + i));
  t.prio <- extend t.prio 0.0;
  t.stamps <- extend t.stamps 0;
  t.values <- extend t.values 0

let push t ~priority ~stamp v =
  if t.length = Array.length t.order then grow t;
  let i = t.length in
  let h = t.order.(i) in
  t.prio.(h) <- priority;
  t.stamps.(h) <- stamp;
  t.values.(h) <- v;
  t.length <- i + 1;
  sift_up t h i;
  h

let update t h ~priority ~stamp =
  t.prio.(h) <- priority;
  t.stamps.(h) <- stamp;
  resift t h t.pos.(h)

let remove t h =
  let i = t.pos.(h) in
  let last = t.length - 1 in
  let moved = t.order.(last) in
  t.length <- last;
  place t h last;
  if i < last then resift t moved i

let clear t = t.length <- 0

let iter t f =
  for i = 0 to t.length - 1 do
    f t.order.(i)
  done
