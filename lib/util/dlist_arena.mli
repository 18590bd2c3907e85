(** Arena-backed intrusive doubly-linked lists over flat [int array]s.

    One arena owns three parallel arrays ([prev], [next], [key]) plus a
    free list threaded through [next]; every node is an [int] slot index
    into those arrays, so list operations are pure array reads and writes
    with no boxed nodes and no per-operation allocation. Several lists
    (each identified by a sentinel slot) can share one arena, which is how
    segmented policies (SLRU, 2Q, MQ, ARC) keep all their queues in one
    pair of cache-friendly arrays, and how LFU keeps its residents and its
    frequency buckets side by side. Sentinel slots are never freed, so a
    caller creates a fixed number of lists, not one per data value.

    Node indices are stable while a node is linked: moving a node between
    lists of the same arena ({!move_to_front} / {!move_to_back} accept a
    destination list) relinks it in place, so side tables indexed by node
    stay valid. {!remove} returns the slot to the free list; the caller
    must drop every reference to a removed node — slot indices are reused
    by later pushes.

    Keys are arbitrary ints (the cache and successor layers store dense
    non-negative file ids). The convenience [pop_front]/[pop_back] return
    [-1] for "empty" so the hot path never allocates an option; use the
    node-returning accessors when keys may be negative. *)

type t
(** The arena. Grows by doubling when the free list is exhausted. *)

type node = int
(** A slot index. {!nil} ([-1]) means "no node". *)

type list_ = private int
(** A list handle (the index of its sentinel slot). *)

val nil : node
(** [-1], the absent node. *)

val create : ?capacity:int -> unit -> t
(** [create ~capacity ()] pre-allocates room for [capacity] nodes
    (default 16; sentinels count against it).
    @raise Invalid_argument when [capacity < 1]. *)

val new_list : t -> list_
(** Allocates an empty list (one sentinel slot) in the arena. *)

val key : t -> node -> int
(** The key stored at [node]. Undefined for sentinels and freed slots. *)

val is_empty : t -> list_ -> bool

val push_front : t -> list_ -> int -> node
(** [push_front t l k] links a fresh node carrying [k] at the front of
    [l] and returns it. Amortised O(1); grows the arena when full. *)

val push_back : t -> list_ -> int -> node

val push_after : t -> node -> int -> node
(** [push_after t anchor k] links a fresh node carrying [k] right after
    [anchor], a node linked in some list of [t], and returns it. *)

val remove : t -> node -> unit
(** Unlinks [node] from whichever list holds it and returns its slot to
    the free list. The caller must forget the node afterwards. *)

val move_to_front : t -> list_ -> node -> unit
(** [move_to_front t l n] relinks [n] (from any list of [t]) to the front
    of [l]. The node index is unchanged. *)

val move_to_back : t -> list_ -> node -> unit

val move_after : t -> node -> anchor:node -> unit
(** [move_after t n ~anchor] relinks [n] right after [anchor] (a
    different node, linked in any list of [t]). The node index is
    unchanged. *)

val first : t -> list_ -> node
(** Front node of the list, or {!nil} when empty. *)

val last : t -> list_ -> node
(** Back node of the list, or {!nil} when empty. *)

val next : t -> list_ -> node -> node
(** [next t l n] is the node after [n] in [l], or {!nil} when [n] is
    the last. *)

val prev : t -> list_ -> node -> node
(** [prev t l n] is the node before [n] in [l], or {!nil} when [n] is
    the first. *)

val pop_front : t -> list_ -> int
(** Removes the front node and returns its key, or [-1] when empty. *)

val pop_back : t -> list_ -> int
(** Removes the back node and returns its key, or [-1] when empty. *)

val clear_list : t -> list_ -> unit
(** Returns every node of the list to the free list, leaving it empty. *)

val iter : t -> list_ -> (int -> unit) -> unit
(** [iter t l f] applies [f] to every key, front to back. *)

val fold : t -> list_ -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Front-to-back fold over keys. *)

val to_list : t -> list_ -> int list
(** Keys front to back (allocates; for tests and [contents]). *)

val length : t -> list_ -> int
(** Number of nodes in [l]. O(n) — callers on the hot path keep their own
    counters. *)

(** {2 Introspection — free-list invariants, for tests} *)

val slots : t -> int
(** Total slots currently allocated in the backing arrays. *)

val live : t -> int
(** Nodes currently linked into some list, sentinels included. *)

val free : t -> int
(** Slots on the free list. [live t + free t = slots t] always holds. *)
