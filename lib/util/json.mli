(** JSON documents for the result ledgers ([BENCH_*.json]): a value type,
    one string escape and one layout, so every ledger is built as a value
    and printed the same way.

    The layout keeps ledgers diffable line by line: a top-level object or
    array prints one member per line, a member that holds objects or
    arrays prints one element per line, and anything deeper prints on one
    line. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** a number already formatted, so each ledger keeps its precision *)
  | Str of string  (** printed quoted and {!escape}d *)
  | Arr of t list
  | Obj of (string * t) list  (** members print in list order *)

val int : int -> t
(** [int n] is [Num (string_of_int n)]. *)

val num : ('a -> string, unit, string) format -> 'a -> t
(** [num fmt x] is [Num (Printf.sprintf fmt x)], e.g. [num "%.3f" x]. *)

val escape : string -> string
(** The body of a JSON string literal for [s]: a double quote, a
    backslash and a newline are escaped with a backslash (the newline as
    [n]), any other byte below 0x20 becomes a [u00XX] escape, and every
    other byte is copied. *)

val to_string : t -> string
(** The value in the ledger layout, ending in a newline. Each line level
    indents two spaces; inline items are separated by [", "], keys from
    values by [": "]; an empty container prints as [{}] or [[]]. *)
