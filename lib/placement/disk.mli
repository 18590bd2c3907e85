(** A one-dimensional storage device for placement experiments (paper
    §2.1 and future work: groups are collocated on storage to reduce
    access latency). Files occupy integer slots; the cost of an access is
    the head's travel distance to the file's slot. A file may be
    *replicated* into several slots — the §2.1 answer to popular files
    shared by many working sets — in which case the head reads the
    nearest replica. Files never seen by the layout are allocated at the
    end of the device on first access. *)

type t

val create : unit -> t

val place : t -> Agg_trace.File_id.t -> slot:int -> unit
(** Adds a replica of the file at [slot]. Slots may hold one file each;
    @raise Invalid_argument if [slot] is negative or already occupied. *)

val slots_of : t -> Agg_trace.File_id.t -> int list
(** All replica slots of a file (empty when never placed). *)

val next_free_slot : t -> int
(** One past the highest occupied slot. *)

val placed_files : t -> int
val occupied_slots : t -> int

type replay_stats = {
  accesses : int;
  total_seek : float;
  mean_seek : float;
  max_seek : int;
  allocated_on_the_fly : int;  (** files first seen during replay *)
}

val replay : t -> Agg_trace.File_id.t array -> replay_stats
(** Walks the head through the access sequence: each access seeks to the
    nearest replica of the file (allocating an end-of-device slot for
    unknown files) and the distances are accumulated. The device is
    mutated (on-the-fly allocations persist). *)
