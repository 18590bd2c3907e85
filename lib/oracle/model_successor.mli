(** Executable reference models of the Fig. 5 per-file successor-list
    replacement schemes: {!Agg_successor.Successor_list} under [Recency]
    and [Frequency], plus the unbounded perfect oracle of
    {!Agg_successor.Oracle}. Pure lists, linear scans, no shared
    structure with the optimized implementations. *)

type t

val create : capacity:int -> policy:Agg_successor.Successor_list.policy -> t
(** @raise Invalid_argument when [capacity <= 0]. *)

val size : t -> int

val observe : t -> int -> unit
(** Record that the given file just followed this list's file. *)

val mem : t -> int -> bool

val ranked : t -> int list
(** Successors most-likely first — same order contract as the optimized
    list: recency order under [Recency]; by descending count, most recent
    tick first on ties, under [Frequency]. *)

val top : t -> int option

(** Reference model of the perfect Fig. 5 oracle: a plain list of every
    (file, successor) pair ever observed. *)
module Oracle : sig
  type t

  val create : unit -> t
  val observe : t -> file:int -> successor:int -> unit
  val mem : t -> file:int -> successor:int -> bool
end
