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

(* Walks the distinct values in ascending order, accumulating their
   counts, to the first whose running count passes [rank]. *)
let percentile_of_counts values counts p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Stats.percentile_of_counts: p outside [0, 1]";
  if Array.length counts <> Array.length values then
    invalid_arg "Stats.percentile_of_counts: values and counts differ in length";
  let n =
    Array.fold_left
      (fun n c ->
        if c < 0 then invalid_arg "Stats.percentile_of_counts: negative count";
        n + c)
      0 counts
  in
  if n = 0 then 0.0
  else begin
    let order = Array.init (Array.length values) Fun.id in
    Array.sort (fun i j -> Float.compare values.(i) values.(j)) order;
    let rank = int_of_float (float_of_int (n - 1) *. p) in
    let rec walk k seen =
      let i = order.(k) in
      let seen = seen + counts.(i) in
      if seen > rank then values.(i) else walk (k + 1) seen
    in
    walk 0 0
  end

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let percent_change ~baseline ~value =
  if baseline = 0.0 then 0.0 else (value -. baseline) /. baseline *. 100.0

let log2 x = Float.log x /. Float.log 2.0
