(** Growable array. OCaml 5.1 predates [Stdlib.Dynarray], so traces and
    other append-heavy buffers use this minimal equivalent. *)

type 'a t

val create : unit -> 'a t
(** An empty vector; the first {!push} allocates its storage, which then
    grows by doubling. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** @raise Invalid_argument when the index is out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** @raise Invalid_argument when the index is out of bounds. *)

val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option

val drop_last : 'a t -> unit
(** Removes the last element without returning it, so the call allocates
    nothing. @raise Invalid_argument when the vector is empty. *)

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val map : ('a -> 'b) -> 'a t -> 'b t
val to_list : 'a t -> 'a list
val of_array : 'a array -> 'a t
val of_list : 'a list -> 'a t
val sub : 'a t -> pos:int -> len:int -> 'a t
(** [sub t ~pos ~len] copies the slice [\[pos, pos+len)].
    @raise Invalid_argument when the slice is out of bounds. *)
