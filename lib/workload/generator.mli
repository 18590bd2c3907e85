(** The synthetic trace generator: turns a {!Profile.t} into an access
    trace by interleaving per-client task streams with background noise.

    File-id layout: ids [0 .. shared_pool)] are the shared utility files,
    the next [background_files] ids are the noise population, and private
    task files are allocated densely above those. Generation is fully
    deterministic given the seed. *)

val generate : ?seed:int -> events:int -> Profile.t -> Agg_trace.Trace.t
(** [generate ~events profile] produces a trace of exactly [events]
    accesses, written straight into the trace's presized columns.
    @raise Invalid_argument when [events < 0]. *)

val generate_files : ?seed:int -> events:int -> Profile.t -> Agg_trace.File_id.t array
(** The bare file-id sequence of {!generate} (same stream, cheaper). *)

val fold :
  ?seed:int ->
  events:int ->
  Profile.t ->
  init:'acc ->
  f:('acc -> client:int -> op:Agg_trace.Event.op -> file:Agg_trace.File_id.t -> 'acc) ->
  'acc
(** [fold ~events profile ~init ~f] streams the exact event sequence of
    {!generate} through [f] without materialising a trace — consumers that
    fold over the stream hold O(1) generator state instead of an
    O(events) trace. @raise Invalid_argument when [events < 0]. *)

val iter :
  ?seed:int ->
  events:int ->
  Profile.t ->
  f:(client:int -> op:Agg_trace.Event.op -> file:Agg_trace.File_id.t -> unit) ->
  unit
(** {!fold} for effectful consumers. *)
