(** Belady's offline-optimal replacement (MIN): evicts the resident key
    whose next use lies furthest in the future. Requires the whole access
    sequence up front; used as the unbeatable reference point in tests and
    ablations. *)

type result = { accesses : int; hits : int; misses : int }

val simulate : capacity:int -> int array -> result
(** [simulate ~capacity trace] replays [trace] through an optimal cache of
    [capacity] keys.
    @raise Invalid_argument when [capacity <= 0]. *)
