(** Best-effort construction of a retrieval group (paper §3, "Retrieving a
    Group of Successors"). For groups of two or three files the group is
    the requested file plus its most likely immediate successors; larger
    groups chain transitive "most-likely" predictions as far as possible,
    falling back to lower-ranked immediate successors when the chain
    stalls. The result may be shorter than requested — the server makes a
    best effort, never a guarantee. *)

val build :
  Agg_successor.Tracker.t ->
  group_size:int ->
  Agg_trace.File_id.t ->
  Agg_trace.File_id.t list
(** [build tracker ~group_size file] is the retrieval group for [file]:
    [file] first, then up to [group_size - 1] distinct predicted files
    (never [file] itself, no duplicates). A wrapper over {!build_into}.
    @raise Invalid_argument when [group_size <= 0]. *)

val build_into :
  Agg_successor.Tracker.t ->
  group_size:int ->
  Agg_trace.File_id.t ->
  int array ->
  int
(** [build_into tracker ~group_size file buf] writes
    [build tracker ~group_size file] to [buf.(0) .. buf.(len - 1)] and
    returns [len] (at least 1: [buf.(0)] is [file]). Only that prefix is
    read or written, so [buf] may hold anything beforehand and may be
    longer than [group_size]. Under the [Recency] metadata policy it
    allocates nothing.
    @raise Invalid_argument when [group_size <= 0] or [buf] is shorter
    than [group_size]. *)
