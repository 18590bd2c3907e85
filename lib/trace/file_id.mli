(** File identifiers. Simulations work on dense integer ids; a {!Namespace}
    maps human-readable path names to ids for the codec and the examples,
    and {!Dense} numbers the ids one run touches. *)

type t = int
(** Ids are plain non-negative integers so they can index arrays and key
    [Hashtbl]s without boxing. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Namespace : sig
  (** Bidirectional interning of path names. *)

  type id = t
  type t

  val create : unit -> t
  val intern : t -> string -> id
  (** [intern t name] returns the id for [name], allocating the next dense
      id on first sight. *)

  val find : t -> string -> id option
  val name : t -> id -> string option
  (** The name interned for [id], if any. *)

  val count : t -> int
  val iter : t -> (string -> id -> unit) -> unit
end

module Dense : sig
  (** Interning of file ids into dense keys: the [n]-th distinct file
      seen gets key [n - 1]. One run touches a small part of its id span
      (a 6k-event paper stream 8–20%), so tables keyed by the key hold
      one slot per file touched, while a table keyed by raw id pays a
      page for every 512-id stretch that any touched id lands in. The
      interner's own map is the one table keyed by raw id; ids at or
      above 2{^30} go to a side hash table instead, so ids near 10{^12}
      cost a hash entry each rather than a directory spanning them. *)

  type file = t

  type key = private int
  (** A key indexes tables directly; a raw id never passes for one. *)

  type t

  val create : unit -> t
  (** An interner that has seen no file. *)

  val intern : t -> file -> key
  (** [intern t file] is [file]'s key, giving it the next key on first
      sight. @raise Invalid_argument when [file] is negative. *)

  val find : t -> file -> key option
  (** [find t file] is [file]'s key, or [None] when it was never
      interned. *)

  val file : t -> int -> file
  (** [file t k] is the file interned as key [k]. It takes a plain int,
      so a key read back from a keyed table needs no conversion.
      @raise Invalid_argument unless [k] is a key [t] gave out. *)

  val files : t -> file array
  (** [files t] is a fresh array whose entry [k] is [file t k]. *)
end
