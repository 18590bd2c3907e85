(** Indexed binary min-heap over flat arrays — the priority queue of the
    rent-based baselines ([Agg_baselines.Landlord] / [Bundle]).

    Every element is an [int] {e handle} carrying a float priority, an
    int {e stamp} that breaks priority ties (smaller stamp first) and an
    int payload. Elements are ordered by [(priority, stamp)]
    lexicographically, so the {!top} is fully determined by those two
    keys and never by insertion history. A handle stays valid from the
    {!push} that returned it until it is {!remove}d; after that it may be
    handed out again by a later push, so the caller must forget it.

    The heap is five flat arrays — the heap order of the handles and its
    inverse, and per handle a [float] priority, an [int] stamp and an
    [int] payload — so [push], [update] and [remove] are O(log n) array
    moves that allocate nothing except when the arrays double.
    Priorities must not be NaN. *)

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

val push : t -> priority:float -> stamp:int -> int -> handle
(** [push t ~priority ~stamp v] adds an element with payload [v] and
    returns its handle. O(log n) amortised. *)

val top : t -> handle
(** The minimal element by [(priority, stamp)], or {!nil} when empty.
    O(1). *)

val value : t -> handle -> int
(** The payload of a live handle. *)

val priority : t -> handle -> float

val stamp : t -> handle -> int

val update : t -> handle -> priority:float -> stamp:int -> unit
(** [update t h ~priority ~stamp] re-keys the live element [h] in
    place. O(log n). *)

val remove : t -> handle -> unit
(** Removes the live element [h]; the handle becomes free for reuse.
    O(log n). *)

val clear : t -> unit
(** Removes every element, keeping the arrays. O(1). *)

val iter : t -> (handle -> unit) -> unit
(** [iter t f] applies [f] to every live handle, in no particular
    order. *)

val slots : t -> int
(** Elements the backing arrays can hold before they next double (for
    tests of the growth policy). *)
