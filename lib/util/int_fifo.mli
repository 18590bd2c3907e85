(** A bounded first-in-first-out queue of ints: the ghost queues of the
    MQ and 2Q replacement policies. Storage starts small and doubles up
    to the bound, so a bound near [max_int] costs nothing until entries
    arrive. Pushing allocates only when the storage grows. *)

type t

val create : bound:int -> t
(** [create ~bound] is an empty queue that holds at most [bound]
    entries ([bound <= 0]: it holds none).*)

val push : t -> int -> int
(** [push t x] appends [x]. When that makes the queue longer than its
    bound, the oldest entry is dropped and returned; otherwise the
    result is [-1] (so entries should be non-negative). *)

val length : t -> int

val clear : t -> unit
