(** The relationship-metadata store: one bounded successor list per file,
    updated online from the observed access sequence. This is exactly the
    server-side metadata of the aggregating cache (paper §3) — "no effort
    is made to extend the information tracked beyond a single immediate
    successor". *)

type t

val create :
  ?capacity:int -> ?policy:Successor_list.policy -> ?per_client:bool -> unit -> t
(** [create ()] tracks up to [capacity] (default 8) successors per file
    with [policy] (default [Recency]). With [per_client:true] the "previous
    file" context is kept per client id, so interleaved client streams do
    not pollute each other's succession — one of the predictive-model
    choices discussed in §2.2 (default [false]: the raw global sequence,
    as in the paper's evaluation). *)

val capacity : t -> int
val policy : t -> Successor_list.policy

val observe : t -> ?client:int -> Agg_trace.File_id.t -> unit
(** Feed the next file of the access sequence. Updates the successor list
    of the previously observed file (for this client's context when
    [per_client] is set) and makes this file the new context. *)

val observe_client : t -> client:int -> Agg_trace.File_id.t -> unit
(** [observe_client t ~client file] is [observe t ~client file] for
    callers that always know the client: an optional argument is boxed
    at every call that passes it, this one is not. *)

val observe_event : t -> Agg_trace.Event.t -> unit
val observe_trace : t -> Agg_trace.Trace.t -> unit

val successors : t -> Agg_trace.File_id.t -> Agg_trace.File_id.t list
(** Ranked most-likely first; empty for unknown files. *)

val first_successor_outside : t -> Agg_trace.File_id.t -> int array -> len:int -> int
(** [first_successor_outside t file set ~len] is the first of
    [successors t file] that is not among [set.(0) .. set.(len - 1)], or
    [-1] when there is none. Under [Recency] it scans the stored list in
    place and allocates nothing. *)

val top_successor : t -> Agg_trace.File_id.t -> Agg_trace.File_id.t option

val transitive_successors : t -> Agg_trace.File_id.t -> length:int -> Agg_trace.File_id.t list
(** [transitive_successors t f ~length] is the predicted access sequence
    after [f] (§3): recursively follow the most likely immediate
    successor, stopping at [length] files, on a cycle, or when a file has
    no recorded successor. [f] itself is not included; the result contains
    no duplicates and never contains [f]. *)

val tracked_files : t -> int
(** Number of files with a non-empty successor list. *)

val reset_context : t -> unit
(** Forget the "previous file" context(s) without touching the metadata —
    used at trace boundaries. *)
