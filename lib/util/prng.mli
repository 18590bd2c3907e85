(** Deterministic pseudo-random number generation.

    Every simulation in this repository is driven by an explicit generator
    state so that experiments are reproducible run-to-run and seed-to-seed.
    The implementation is xoshiro256** seeded through SplitMix64, which is
    fast, has a 256-bit state, and passes the usual statistical batteries. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a generator from a 63-bit seed. The default
    seed is a fixed constant, so two generators created without a seed
    produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]. Streams of
    the parent and child are statistically independent. *)

val derive : t -> int -> t
(** [derive t index] is a fresh generator determined purely by [t]'s
    current state and the stream [index]; [t] is {e not} advanced. Two
    parents in the same state derive identical children for the same
    index, and distinct indices yield statistically independent streams —
    the per-node / per-stream seeding idiom: give worker [i] the stream
    [derive base i] instead of ad-hoc seed arithmetic. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

(** {2 One-draw streams}

    Counter-based randomness (a fault decision, a ring position, a
    sampling verdict) derives a fresh stream per query and reads one
    value from it. These functions compute that first value directly,
    without building the generator: xoshiro256**'s first output depends
    only on the second SplitMix64 word of the seeding expansion, so one
    mix round gives it exactly. They allocate nothing. A {e draw} is the
    first 64-bit output shifted right by two, a non-negative 62-bit
    int. *)

val first_draw : seed:int -> int
(** [first_draw ~seed] is the first draw of [create ~seed ()]:
    [Int64.to_int (Int64.shift_right_logical (bits64 (create ~seed ())) 2)]. *)

val derive_draw : t -> int -> int
(** [derive_draw t index] is the first draw of [derive t index], in the
    same form; [t] is not advanced. *)

val draw_float : int -> float
(** [draw_float d] is the value in [\[0, 1)] that [float g 1.0] returns
    when [d] is [g]'s next draw. *)

val draw_bernoulli : int -> p:float -> bool
(** [draw_bernoulli d ~p] is [draw_float d < p]: the verdict
    [bernoulli g ~p] gives when [d] is [g]'s next draw, for every [p]
    (NaN included). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive.
    Uses rejection sampling, so the result is unbiased. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place, uniformly (Fisher–Yates). *)

val choose : t -> 'a array -> 'a
(** [choose t a] is a uniformly random element of [a].
    @raise Invalid_argument if [a] is empty. *)
