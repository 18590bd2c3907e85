(* Flat-array intrusive doubly-linked lists. Slot [i] of the three
   parallel arrays holds one node; free slots are threaded through [next]
   with [prev.(i) = -2] marking them (a linked node always has a valid
   prev, a sentinel points at itself).

   The relinks, and the operations the policies call on every access,
   are [@inline]: without flambda they would otherwise be calls. Only
   [grow] stays out of line. *)

type node = int
type list_ = int

let nil = -1
let freed = -2

type t = {
  mutable prev : int array;
  mutable next : int array;
  mutable key : int array;
  mutable free_head : int; (* head of the free list, threaded via next *)
  mutable live : int; (* linked nodes, sentinels included *)
}

(* Thread slots [lo, hi) onto the free list, highest first so low indices
   are handed out first (keeps early traffic in the same cache lines). *)
let thread_free t lo hi =
  for i = hi - 1 downto lo do
    t.prev.(i) <- freed;
    t.next.(i) <- t.free_head;
    t.free_head <- i
  done

let create ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Dlist_arena.create: capacity must be positive";
  let t =
    {
      prev = Array.make capacity 0;
      next = Array.make capacity 0;
      key = Array.make capacity 0;
      free_head = nil;
      live = 0;
    }
  in
  thread_free t 0 capacity;
  t

(* Doubles the backing arrays. The copy is a typed loop, which compiles
   to plain stores: [Array.append] or [Array.blit] would also build a
   temporary or call [caml_modify] per element of a major-heap array. *)
let grow t =
  let old = Array.length t.prev in
  let cap = 2 * old in
  let extend (a : int array) =
    let b = Array.make cap 0 in
    for i = 0 to old - 1 do
      b.(i) <- a.(i)
    done;
    b
  in
  t.prev <- extend t.prev;
  t.next <- extend t.next;
  t.key <- extend t.key;
  thread_free t old cap

let[@inline] alloc t k =
  if t.free_head = nil then grow t;
  let n = t.free_head in
  t.free_head <- t.next.(n);
  t.key.(n) <- k;
  t.live <- t.live + 1;
  n

let[@inline] release t n =
  t.prev.(n) <- freed;
  t.next.(n) <- t.free_head;
  t.free_head <- n;
  t.live <- t.live - 1

let new_list t =
  let s = alloc t 0 in
  t.prev.(s) <- s;
  t.next.(s) <- s;
  s

let key t n = t.key.(n)
let is_empty t l = t.next.(l) = l

let[@inline] link_after t anchor n =
  let after = t.next.(anchor) in
  t.prev.(n) <- anchor;
  t.next.(n) <- after;
  t.prev.(after) <- n;
  t.next.(anchor) <- n

let[@inline] unlink t n =
  let p = t.prev.(n) and q = t.next.(n) in
  t.next.(p) <- q;
  t.prev.(q) <- p

let[@inline] push_front t l k =
  let n = alloc t k in
  link_after t l n;
  n

let[@inline] push_back t l k =
  let n = alloc t k in
  link_after t t.prev.(l) n;
  n

let push_after t anchor k =
  let n = alloc t k in
  link_after t anchor n;
  n

let[@inline] remove t n =
  unlink t n;
  release t n

let[@inline] move_to_front t l n =
  unlink t n;
  link_after t l n

let[@inline] move_to_back t l n =
  unlink t n;
  link_after t t.prev.(l) n

let move_after t n ~anchor =
  unlink t n;
  link_after t anchor n

let first t l = if t.next.(l) = l then nil else t.next.(l)
let last t l = if t.prev.(l) = l then nil else t.prev.(l)

let next t l n = if t.next.(n) = l then nil else t.next.(n)
let prev t l n = if t.prev.(n) = l then nil else t.prev.(n)

let pop_front t l =
  let n = t.next.(l) in
  if n = l then -1
  else begin
    let k = t.key.(n) in
    remove t n;
    k
  end

let[@inline] pop_back t l =
  let n = t.prev.(l) in
  if n = l then -1
  else begin
    let k = t.key.(n) in
    remove t n;
    k
  end

let clear_list t l =
  let rec loop n =
    if n <> l then begin
      let next = t.next.(n) in
      release t n;
      loop next
    end
  in
  loop t.next.(l);
  t.prev.(l) <- l;
  t.next.(l) <- l

let iter t l f =
  let rec loop n =
    if n <> l then begin
      f t.key.(n);
      loop t.next.(n)
    end
  in
  loop t.next.(l)

let fold t l ~init ~f =
  let rec loop acc n = if n = l then acc else loop (f acc t.key.(n)) t.next.(n) in
  loop init t.next.(l)

let to_list t l = List.rev (fold t l ~init:[] ~f:(fun acc k -> k :: acc))

let length t l =
  let rec loop acc n = if n = l then acc else loop (acc + 1) t.next.(n) in
  loop 0 t.next.(l)

let slots t = Array.length t.prev
let live t = t.live

let free t =
  let rec loop acc n = if n = nil then acc else loop (acc + 1) t.next.(n) in
  loop 0 t.free_head
