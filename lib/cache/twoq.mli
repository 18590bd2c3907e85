(** The 2Q policy (Johnson & Shasha, VLDB 1994), "full version": a small
    FIFO admission queue [A1in] filters one-hit wonders, a ghost queue
    [A1out] remembers recently evicted one-timers, and only keys that
    return while remembered enter the main LRU [Am]. Quotas follow the
    paper's tuning: A1in = 25 % of capacity, A1out = 50 % of capacity
    (ghost entries hold no data). *)

module Core : Policy.UNIT
(** The unit-weight policy. *)

include Policy.S with type t = Core.t Lift.t

val in_main : t -> int -> bool
(** Whether a resident key has been promoted to the main (Am) queue. *)
