type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let default_seed = 0x1db5_2cec_6a2f_7b4

(* SplitMix64: used only to expand a seed into the 256-bit xoshiro state.
   Its output is well distributed even for adjacent seeds. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ?(seed = default_seed) () =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let state = ref (bits64 t) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

(* Fold the parent's full 256-bit state with the (injectively scaled)
   stream index into one SplitMix64 seed; the parent is not advanced, so
   [derive t i] is a pure function of [t]'s current state and [i]. *)
let[@inline] derive_seed t index =
  let key =
    Int64.logxor
      (Int64.logxor t.s0 (rotl t.s1 13))
      (Int64.logxor (rotl t.s2 27) (rotl t.s3 41))
  in
  Int64.logxor key (Int64.mul (Int64.of_int index) 0x9E3779B97F4A7C15L)

let derive t index =
  let state = ref (derive_seed t index) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

(* A non-negative 62-bit integer: plenty for array indices, and it avoids
   having to reason about [min_int] when taking remainders. *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

(* The one-draw primitive. xoshiro256**'s first output is
   [rotl (s1 * 5) 7 * 9]: it reads only [s1], the second SplitMix64 word
   of the seeding expansion, and that word is one mix round of
   [seed + 2 * golden]. So the first draw of a freshly seeded generator
   needs no state record — every step stays in unboxed [Int64] locals,
   and the result is returned as an immediate 62-bit int. *)
let[@inline] first_of_seed seed =
  let open Int64 in
  (* 2 * 0x9E3779B97F4A7C15, modulo 2^64: the SplitMix64 state after the
     second increment *)
  let z = add seed 0x3C6EF372FE94F82AL in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let s1 = logxor z (shift_right_logical z 31) in
  to_int (shift_right_logical (mul (rotl (mul s1 5L) 7) 9L) 2)

let first_draw ~seed = first_of_seed (Int64.of_int seed)
let derive_draw t index = first_of_seed (derive_seed t index)

(* 53 random bits mapped to [0, 1), the standard double-precision trick:
   the top 53 of the 64 bits over 2^53. *)
let draw_float draw = Stdlib.float_of_int (draw lsr 9) /. 9007199254740992.0
let draw_bernoulli draw ~p = draw_float draw < p

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max62 = (1 lsl 62) - 1 in
  let limit = max62 - (max62 mod bound) in
  let rec loop () =
    let v = bits62 t in
    if v >= limit then loop () else v mod bound
  in
  loop ()

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound = draw_float (bits62 t) *. bound

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let bernoulli t ~p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))
