(** Summary statistics of a trace, for workload characterisation tables
    and profile calibration. *)

type t = {
  events : int;
  distinct_files : int;
  clients : int;
  write_fraction : float;  (** fraction of events with op = Write *)
  repeat_fraction : float;  (** fraction of events whose file was seen before *)
  max_file_popularity : int;  (** access count of the most popular file *)
  mean_accesses_per_file : float;
}

val compute : Trace.t -> t
val pp : Format.formatter -> t -> unit

val top_files : Trace.t -> k:int -> (File_id.t * int) list
(** The [k] most-accessed files with their counts, most popular first. *)
