(* Power-of-two buckets: bucket 0 holds the value 0 and bucket i >= 1
   holds [2^(i-1), 2^i).  62 buckets cover the whole non-negative int
   range, so [add] never needs a range check beyond the sign. *)

let bucket_count = 63

type t = {
  counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable min_v : int; (* max_int when empty *)
  mutable max_v : int; (* min_int when empty *)
}

let create () =
  { counts = Array.make bucket_count 0; total = 0; sum = 0; min_v = max_int; max_v = min_int }

let index_of v =
  if v = 0 then 0
  else begin
    (* number of significant bits: 1 -> 1, 2..3 -> 2, 4..7 -> 3, ... *)
    let bits = ref 0 in
    let v = ref v in
    while !v <> 0 do
      incr bits;
      v := !v lsr 1
    done;
    !bits
  end

let bounds i =
  if i = 0 then (0, 0) else ((1 lsl (i - 1)), (1 lsl i) - 1)

let add t v =
  if v < 0 then invalid_arg "Histogram.add: negative value";
  let i = index_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.total
let sum t = t.sum
let min_value t = if t.total = 0 then None else Some t.min_v
let max_value t = if t.total = 0 then None else Some t.max_v
let mean t = Agg_util.Stats.ratio t.sum t.total

let merge a b =
  {
    counts = Array.init bucket_count (fun i -> a.counts.(i) + b.counts.(i));
    total = a.total + b.total;
    sum = a.sum + b.sum;
    min_v = Stdlib.min a.min_v b.min_v;
    max_v = Stdlib.max a.max_v b.max_v;
  }

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: q out of [0,1]";
  if t.total = 0 then None
  else begin
    (* smallest bucket whose cumulative count reaches ceil(q * total),
       reported as the bucket's inclusive upper bound clamped to the
       observed maximum — monotone in q by construction *)
    let target = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int t.total))) in
    let rec loop i seen =
      if i >= bucket_count then Some t.max_v
      else
        let seen = seen + t.counts.(i) in
        if seen >= target then Some (Stdlib.min (snd (bounds i)) t.max_v) else loop (i + 1) seen
    in
    loop 0 0
  end

let buckets t =
  let acc = ref [] in
  for i = bucket_count - 1 downto 0 do
    if t.counts.(i) > 0 then
      let lo, hi = bounds i in
      acc := (lo, hi, t.counts.(i)) :: !acc
  done;
  !acc
