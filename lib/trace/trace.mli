(** An in-memory access trace: the sequence of file-access events driving
    every simulation.

    Events are stored as columns (sequence numbers, clients and files as
    [int array]s, operations one byte each), so a trace allocates no block
    per event. Replay loops read the columns by index through {!file},
    {!client}, {!op} and {!is_write}; {!get}, {!iter}, {!fold} and
    {!to_events} build {!Event.t} records on demand for the codec, the
    statistics and the tests. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty trace with room for [capacity] events (default 16) before its
    columns grow. @raise Invalid_argument when [capacity < 0]. *)

val push : t -> seq:int -> client:int -> op:Event.op -> File_id.t -> unit
(** [push t ~seq ~client ~op file] appends the event
    [{ seq; client; op; file }] without building it. *)

val append : t -> Event.t -> unit
(** Events must be appended in sequence order; [seq] fields are trusted as
    given (the workload generators produce them densely from 0). *)

val add_access : t -> ?client:int -> ?op:Event.op -> File_id.t -> unit
(** [add_access t file] appends an event with the next sequence number. *)

val length : t -> int

val file : t -> int -> File_id.t
(** [file t i] is the file of event [i], as [(get t i).file].
    @raise Invalid_argument unless [0 <= i < length t]; so do {!client},
    {!op}, {!is_write} and {!get}. *)

val client : t -> int -> int
(** [client t i] is [(get t i).client]. *)

val op : t -> int -> Event.op
(** [op t i] is [(get t i).op]. *)

val is_write : t -> int -> bool
(** [is_write t i] is [Event.is_write (get t i)]. *)

val get : t -> int -> Event.t
(** [get t i] is event [i], built afresh. *)

val iter : (Event.t -> unit) -> t -> unit
val fold : ('acc -> Event.t -> 'acc) -> 'acc -> t -> 'acc

val files : t -> File_id.t array
(** The bare file-id sequence, in order — what the cache simulators and
    entropy calculations consume. A fresh copy of the file column. *)

val of_files : ?client:int -> File_id.t list -> t
(** A trace of [Open] events over the given file sequence. *)

val of_events : Event.t list -> t
val to_events : t -> Event.t list
val distinct_files : t -> int
(** Number of distinct file ids appearing in the trace. *)

val sub : t -> pos:int -> len:int -> t
(** Copy of a slice, with events renumbered from 0.
    @raise Invalid_argument when the slice is out of bounds. *)

val concat : t -> t -> t
(** [concat a b] is a new trace with [b]'s events renumbered after [a]'s. *)
