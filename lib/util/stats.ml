module Running = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { count = 0; mean = 0.0; m2 = 0.0; min = Float.nan; max = Float.nan }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if t.count = 1 then begin
      t.min <- x;
      t.max <- x
    end
    else begin
      if x < t.min then t.min <- x;
      if x > t.max then t.max <- x
    end

  let count t = t.count
  let mean t = t.mean
  let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)
  let min t = t.min
  let max t = t.max
end

module Histogram = struct
  type t = { lo : float; hi : float; counts : int array; mutable total : int }

  let create ~lo ~hi ~buckets =
    if buckets <= 0 then invalid_arg "Stats.Histogram.create: buckets must be positive";
    if hi <= lo then invalid_arg "Stats.Histogram.create: hi must exceed lo";
    { lo; hi; counts = Array.make buckets 0; total = 0 }

  let bucket_of t x =
    let n = Array.length t.counts in
    let idx = int_of_float (float_of_int n *. (x -. t.lo) /. (t.hi -. t.lo)) in
    Stdlib.min (n - 1) (Stdlib.max 0 idx)

  let add t x =
    let b = bucket_of t x in
    t.counts.(b) <- t.counts.(b) + 1;
    t.total <- t.total + 1

  let count t = t.total
  let bucket_counts t = Array.copy t.counts

  let percentile t p =
    if t.total = 0 then invalid_arg "Stats.Histogram.percentile: empty histogram";
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.Histogram.percentile: p out of range";
    let n = Array.length t.counts in
    let width = (t.hi -. t.lo) /. float_of_int n in
    let target = p /. 100.0 *. float_of_int t.total in
    let rec loop i seen =
      if i >= n then t.hi
      else
        let seen' = seen + t.counts.(i) in
        if float_of_int seen' >= target && t.counts.(i) > 0 then
          let within = (target -. float_of_int seen) /. float_of_int t.counts.(i) in
          t.lo +. (width *. (float_of_int i +. Float.max 0.0 (Float.min 1.0 within)))
        else loop (i + 1) seen'
    in
    loop 0 0
end

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let swap (a : float array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let rec bit_length n = if n = 0 then 0 else 1 + bit_length (n lsr 1)

(* Quickselect: median-of-three pivot, Hoare partition (runs of equal
   keys split evenly, so heavy duplicates stay linear). Each round keeps
   only the side holding rank [k]. Adversarial inputs can defeat the
   pivot rule, so after [2 * log2 n] rounds the remaining window is
   sorted instead: O(n) expected, O(n log n) worst case. *)
let select (a : float array) k =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let rounds = ref (2 * bit_length (Array.length a)) in
  while !lo < !hi do
    if !rounds = 0 then begin
      let window = Array.sub a !lo (!hi - !lo + 1) in
      Array.sort Float.compare window;
      Array.blit window 0 a !lo (Array.length window);
      lo := k;
      hi := k
    end
    else begin
      decr rounds;
      let mid = !lo + ((!hi - !lo) / 2) in
      if a.(mid) < a.(!lo) then swap a mid !lo;
      if a.(!hi) < a.(!lo) then swap a !hi !lo;
      if a.(!hi) < a.(mid) then swap a !hi mid;
      let pivot = a.(mid) in
      let i = ref !lo and j = ref !hi in
      while !i <= !j do
        while a.(!i) < pivot do incr i done;
        while pivot < a.(!j) do decr j done;
        if !i <= !j then begin
          swap a !i !j;
          incr i;
          decr j
        end
      done;
      (* [lo..j] <= pivot <= [i..hi], and every slot between holds the pivot *)
      if k <= !j then hi := !j
      else if k >= !i then lo := !i
      else begin
        lo := k;
        hi := k
      end
    end
  done;
  a.(k)

let percentile_in_place a p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Stats.percentile_in_place: p outside [0, 1]";
  let n = Array.length a in
  if n = 0 then 0.0 else select a (int_of_float (float_of_int (n - 1) *. p))

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let percent_change ~baseline ~value =
  if baseline = 0.0 then 0.0 else (value -. baseline) /. baseline *. 100.0

let log2 x = Float.log x /. Float.log 2.0
