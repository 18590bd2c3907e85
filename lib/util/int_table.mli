(** A direct-index map from non-negative int keys to non-negative int
    values — the hot-path replacement for [(int, _) Hashtbl.t] in the
    cache and successor layers.

    Lookup, insert and delete are direct probes, with no hashing, no
    collision chains and no per-entry boxes. Absence is the sentinel
    [-1], which is why values must be non-negative; callers with richer
    per-key state pack it into the value (e.g. [(node lsl 1) lor
    segment_bit]) or keep side arrays indexed by the stored value.

    The index has two levels: a directory of fixed 512-slot pages, where
    key [k] lives in slot [k mod 512] of page [k / 512]. A page is
    allocated by the first [set] into it; every directory entry that no
    key has reached points at one shared page of absent slots, which
    nothing ever writes. A probe is two dependent loads, and the
    directory grows by doubling without copying any page. Memory is one
    word per 512 ids up to the largest key, plus 513 words per page a
    key lands on: a run pays for the ids it touches, so keys up to ~10⁹
    are fine, but keys near 10¹² would need a directory of 2×10⁹ words
    (see the id-density assumption in DESIGN.md). *)

type t

val create : ?capacity:int -> unit -> t
(** [create ~capacity ()] sizes the directory for keys below [capacity]
    (default 16), one word per 512 keys; no page is allocated until a
    key is set. @raise Invalid_argument when [capacity < 1]. *)

val get : t -> int -> int
(** [get t k] is the value bound to [k], or [-1] when absent (including
    any [k] beyond the directory, and negative [k]). *)

val mem : t -> int -> bool

val set : t -> int -> int -> unit
(** [set t k v] binds [k] to [v], growing the directory and allocating
    [k]'s page as needed.
    @raise Invalid_argument when [k] or [v] is negative. *)

val remove : t -> int -> unit
(** Unbinds [k]; no-op when absent. *)

val length : t -> int
(** Number of keys currently bound. O(1). *)

val clear : t -> unit
(** Unbinds everything, keeping the directory and every allocated page. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] applies [f key value] to every binding in increasing key
    order (O(allocated pages × 512) — not for hot paths). *)
