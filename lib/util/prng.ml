(* The four xoshiro256** words [s0 s1 s2 s3] live at byte offsets 0, 8, 16
   and 24 of one 32-byte buffer, read and written with the unboxed 64-bit
   bytes primitives. A record of [mutable int64] fields would box every
   word each step stores. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let default_seed = 0x1db5_2cec_6a2f_7b4

let golden = 0x9E3779B97F4A7C15L

(* SplitMix64's output mix: used only to expand a seed into the 256-bit
   xoshiro state. Its output is well distributed even for adjacent seeds.
   SplitMix64 advances its state by [golden] before each output, so its
   [k]-th output from [seed] is [mix (seed + k * golden)]. *)
let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* the state after seeding: SplitMix64 outputs 1 to 4 *)
let of_seed seed =
  let t = Bytes.create 32 in
  for k = 0 to 3 do
    set t (8 * k) (mix (Int64.add seed (Int64.mul (Int64.of_int (k + 1)) golden)))
  done;
  t

let create ?(seed = default_seed) () = of_seed (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step: the output, and the state advanced in place. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let s2' = logxor s2 s0 and s3' = logxor s3 s1 in
  set t 0 (logxor s0 s3');
  set t 8 (logxor s1 s2');
  set t 16 (logxor s2' (shift_left s1 17));
  set t 24 (rotl s3' 45);
  mul (rotl (mul s1 5L) 7) 9L

let bits64 t = next t

(* A non-negative 62-bit integer: plenty for array indices, and it avoids
   having to reason about [min_int] when taking remainders. *)
let[@inline] draw t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let split t = of_seed (next t)

(* Fold the parent's full 256-bit state with the (injectively scaled)
   stream index into one SplitMix64 seed; the parent is not advanced, so
   [derive t i] is a pure function of [t]'s current state and [i]. *)
let[@inline] derive_seed t index =
  let key =
    Int64.logxor
      (Int64.logxor (get t 0) (rotl (get t 8) 13))
      (Int64.logxor (rotl (get t 16) 27) (rotl (get t 24) 41))
  in
  Int64.logxor key (Int64.mul (Int64.of_int index) golden)

let derive t index = of_seed (derive_seed t index)

(* The one-draw primitive. xoshiro256**'s first output is
   [rotl (s1 * 5) 7 * 9]: it reads only [s1], the second SplitMix64 word
   of the seeding expansion, and that word is one mix round of
   [seed + 2 * golden]. So the first draw of a freshly seeded generator
   needs no state buffer — every step stays in unboxed [Int64] locals,
   and the result is returned as an immediate 62-bit int. *)
let[@inline] first_of_seed seed =
  let open Int64 in
  (* 2 * 0x9E3779B97F4A7C15, modulo 2^64: the SplitMix64 state after the
     second increment *)
  let s1 = mix (add seed 0x3C6EF372FE94F82AL) in
  to_int (shift_right_logical (mul (rotl (mul s1 5L) 7) 9L) 2)

let first_draw ~seed = first_of_seed (Int64.of_int seed)
let derive_draw t index = first_of_seed (derive_seed t index)

(* 53 random bits mapped to [0, 1), the standard double-precision trick:
   the top 53 of the 64 bits over 2^53. Scaling by a power of two is
   exact, so multiplying by 2^-53 gives the quotient bit for bit without
   a division. *)
let[@inline] draw_float d = Stdlib.float_of_int (d lsr 9) *. 0x1p-53
let[@inline] draw_bernoulli d ~p = draw_float d < p

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max62 = (1 lsl 62) - 1 in
  let limit = max62 - (max62 mod bound) in
  let v = ref (draw t) in
  while !v >= limit do
    v := draw t
  done;
  !v mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound = draw_float (draw t) *. bound
let bool t = Int64.to_int (next t) land 1 <> 0

(* [draw_bernoulli d ~p] is [float t 1.0 < p] for the same draw, since
   [x *. 1.0 = x]. *)
let bernoulli t ~p =
  if p <= 0.0 then false else if p >= 1.0 then true else draw_bernoulli (draw t) ~p

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
