(* [Prng.draw_float (Prng.draw prng)], which is [Prng.float prng 1.0]:
   the draw's top 53 bits over 2^53, converted here so that the uniform is
   a float local rather than a float returned from [Prng] (boxed when
   [Prng] is compiled without cross-module inlining). *)
let[@inline] uniform_of_draw d = Float.of_int (d lsr 9) /. 9007199254740992.0
let[@inline] uniform prng = uniform_of_draw (Prng.draw prng)

module Zipf = struct
  (* [guide.(j)] is the first rank whose cdf is >= [j / B] for the
     [B = 2^bits >= n] buckets of [\[0, 1)]. *)
  type t = { cdf : float array; guide : int array; bits : int; s : float; total : float }

  let[@inline] weight k s = 1.0 /. Float.pow (float_of_int (k + 1)) s

  let create ~n ~s =
    if n <= 0 then invalid_arg "Dist.Zipf.create: n must be positive";
    if s < 0.0 then invalid_arg "Dist.Zipf.create: s must be non-negative";
    (* The order of operations fixes every bit of the table, and through
       it every generated trace: weights, a left-to-right total, then
       normalise and accumulate. *)
    let cdf = Array.create_float n in
    for k = 0 to n - 1 do
      cdf.(k) <- weight k s
    done;
    let total = ref 0.0 in
    for k = 0 to n - 1 do
      total := !total +. cdf.(k)
    done;
    let total = !total in
    let acc = ref 0.0 in
    for k = 0 to n - 1 do
      acc := !acc +. (cdf.(k) /. total);
      cdf.(k) <- !acc
    done;
    (* Guard against floating-point shortfall at the top of the table. *)
    cdf.(n - 1) <- 1.0;
    let bits = ref 0 in
    while 1 lsl !bits < n do
      incr bits
    done;
    let buckets = 1 lsl !bits in
    let guide = Array.make buckets 0 in
    (* [1 / B] is exact, so [j * inv] is exactly [j / B] *)
    let inv = 1.0 /. float_of_int buckets in
    let k = ref 0 in
    for j = 1 to buckets - 1 do
      let lower = float_of_int j *. inv in
      while not (cdf.(!k) >= lower) do
        incr k
      done;
      guide.(j) <- !k
    done;
    { cdf; guide; bits = !bits; s; total }

  let n t = Array.length t.cdf

  (* The first rank with [cdf >= u]. [cdf >= u] is monotone in the rank:
     below its last entry the table never decreases, and the last entry is
     1.0 > u. Every rank before [guide.(j)] has cdf < j/B <= u, so the
     scan from there returns that first rank, and it stops by
     [guide.(j + 1)] because u < (j + 1)/B. *)
  let sample t prng =
    let d = Prng.draw prng in
    let u = uniform_of_draw d in
    (* j = floor (u * B): the top [bits] bits of the 62-bit draw *)
    let k = ref t.guide.(d lsr (62 - t.bits)) in
    while not (t.cdf.(!k) >= u) do
      incr k
    done;
    !k

  let prob t k =
    if k < 0 || k >= Array.length t.cdf then invalid_arg "Dist.Zipf.prob: rank out of range";
    weight k t.s /. t.total
end

module Alias = struct
  type t = { prob : float array; alias : int array }

  let create weights =
    let n = Array.length weights in
    if n = 0 then invalid_arg "Dist.Alias.create: empty weights";
    let total = Array.fold_left ( +. ) 0.0 weights in
    if total <= 0.0 then invalid_arg "Dist.Alias.create: weights sum to zero";
    Array.iter (fun w -> if w < 0.0 then invalid_arg "Dist.Alias.create: negative weight") weights;
    let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
    let prob = Array.make n 0.0 in
    let alias = Array.make n 0 in
    let small = Stack.create () in
    let large = Stack.create () in
    Array.iteri (fun i p -> if p < 1.0 then Stack.push i small else Stack.push i large) scaled;
    while (not (Stack.is_empty small)) && not (Stack.is_empty large) do
      let s = Stack.pop small in
      let l = Stack.pop large in
      prob.(s) <- scaled.(s);
      alias.(s) <- l;
      scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
      if scaled.(l) < 1.0 then Stack.push l small else Stack.push l large
    done;
    let flush stack =
      while not (Stack.is_empty stack) do
        let i = Stack.pop stack in
        prob.(i) <- 1.0;
        alias.(i) <- i
      done
    in
    flush small;
    flush large;
    { prob; alias }

  let sample t prng =
    let n = Array.length t.prob in
    let i = Prng.int prng n in
    if uniform prng < t.prob.(i) then i else t.alias.(i)

  let size t = Array.length t.prob
end

let geometric prng ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Dist.geometric: p must be in (0, 1]";
  if p >= 1.0 then 0
  else
    let u = 1.0 -. uniform prng in
    int_of_float (Float.floor (Float.log u /. Float.log (1.0 -. p)))

let exponential prng ~mean =
  if mean <= 0.0 then invalid_arg "Dist.exponential: mean must be positive";
  let u = 1.0 -. uniform prng in
  -.mean *. Float.log u

let categorical prng weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Dist.categorical: weights sum to zero";
  let u = uniform prng *. total in
  let n = Array.length weights in
  let rec loop i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. weights.(i) in
      if u < acc then i else loop (i + 1) acc
  in
  loop 0 0.0
