(** Per-file retrieval weights — the size/cost table that turns a bare
    file-id trace into a weighted caching workload. Every file defaults
    to {!Agg_cache.Policy.unit_weight}, so a trace with no weight table
    (or an empty one) replays exactly as before weights existed.

    Only non-unit entries are stored: setting a file back to the unit
    weight erases it, which keeps serialisation canonical and makes
    {!is_unit} a constant-time check. *)

type t

val create : unit -> t

val set : t -> File_id.t -> Agg_cache.Policy.weight -> unit
(** [set t file w] declares [file]'s weight. Setting the unit weight
    removes any previous declaration.
    @raise Invalid_argument when [w] has a non-positive size or cost, or
    when [file] is negative. *)

val get : t -> File_id.t -> Agg_cache.Policy.weight
(** The declared weight, or {!Agg_cache.Policy.unit_weight} when none. *)

val count : t -> int
(** Number of non-unit declarations. *)

val is_unit : t -> bool
(** [true] iff no file carries a non-unit weight — replay is then
    byte-identical to the unweighted world. *)

val to_alist : t -> (File_id.t * Agg_cache.Policy.weight) list
(** Declared entries sorted by file id — the codec's emission order. *)

val of_alist : (File_id.t * Agg_cache.Policy.weight) list -> t
(** @raise Invalid_argument as {!set}. *)
