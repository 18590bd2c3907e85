(* A ring over [buf]: the oldest entry at [head], [len] entries in all.
   The ring holds up to [bound + 1] entries for the moment between a
   push and the drop it causes. *)
type t = { bound : int; mutable buf : int array; mutable head : int; mutable len : int }

let create ~bound =
  let bound = Int.max 0 (Int.min bound (max_int - 1)) in
  { bound; buf = Array.make (Int.min (bound + 1) 16) 0; head = 0; len = 0 }

(* Doubles the ring, up to [bound + 1] slots, oldest entry first. *)
let grow t =
  let n = Array.length t.buf in
  let buf = Array.make (Int.min (t.bound + 1) (2 * n)) 0 in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) mod n)
  done;
  t.buf <- buf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  let n = Array.length t.buf in
  t.buf.((t.head + t.len) mod n) <- x;
  t.len <- t.len + 1;
  if t.len > t.bound then begin
    let oldest = t.buf.(t.head) in
    t.head <- (t.head + 1) mod n;
    t.len <- t.len - 1;
    oldest
  end
  else -1

let length t = t.len

let clear t =
  t.head <- 0;
  t.len <- 0
