(** Indexed binary min-heap over flat arrays — the priority queue of the
    rent-based baselines ([Agg_baselines.Landlord] / [Bundle]).

    Every element is an [int] {e handle} carrying a float priority, an
    int {e stamp} that breaks priority ties (smaller stamp first) and an
    int payload. Elements are ordered by [(priority, stamp)]
    lexicographically, so the {!top} is fully determined by those two
    keys and never by insertion history. A handle stays valid from the
    {!push} that returned it until it is {!remove}d; after that it may be
    handed out again by a later push, so the caller must forget it.

    Priorities are rents: an element pushed or updated with [cost] and
    [size] gets [floor + cost / size] — GreedyDual-Size's
    [H = L + cost/size] — where [floor] is a value the heap keeps: [0.]
    at creation and after {!clear}, and moved only by {!raise_floor}.
    The sum is computed inside the heap, so no float crosses a call.

    The heap is five flat arrays — the heap order of the handles and its
    inverse, and per handle a [float] priority, an [int] stamp and an
    [int] payload — so [push], [update], [restamp] and [remove] are
    O(log n) array moves that allocate nothing except when the arrays
    double. *)

type t

type handle = int
(** A slot index; {!nil} ([-1]) means "no element". *)

val nil : handle

val create : ?capacity:int -> unit -> t
(** [create ~capacity ()] pre-allocates room for [capacity] elements
    (default 16); the arrays double when full.
    @raise Invalid_argument when [capacity < 1]. *)

val length : t -> int
(** Number of elements. O(1). *)

val is_empty : t -> bool

val push : t -> cost:int -> size:int -> stamp:int -> int -> handle
(** [push t ~cost ~size ~stamp v] adds an element with payload [v] at
    priority [floor + cost / size] and returns its handle. [size] must
    be non-zero. O(log n) amortised. *)

val top : t -> handle
(** The minimal element by [(priority, stamp)], or {!nil} when empty.
    O(1). *)

val value : t -> handle -> int
(** The payload of a live handle. *)

val priority : t -> handle -> float

val stamp : t -> handle -> int

val update : t -> handle -> cost:int -> size:int -> stamp:int -> unit
(** [update t h ~cost ~size ~stamp] re-keys the live element [h] in
    place at priority [floor + cost / size]. O(log n). *)

val restamp : t -> handle -> stamp:int -> unit
(** [restamp t h ~stamp] gives the live element [h] a new stamp and keeps
    its priority. O(log n). *)

val raise_floor : t -> handle -> unit
(** [raise_floor t h] sets the floor to the priority of the live element
    [h] (the victim, whose priority is the minimum, when evicting). *)

val remove : t -> handle -> unit
(** Removes the live element [h]; the handle becomes free for reuse.
    O(log n). *)

val clear : t -> unit
(** Removes every element, keeping the arrays, and resets the floor to
    [0.]. O(1). *)

val iter : t -> (handle -> unit) -> unit
(** [iter t f] applies [f] to every live handle, in no particular
    order. *)

val slots : t -> int
(** Elements the backing arrays can hold before they next double (for
    tests of the growth policy). *)
