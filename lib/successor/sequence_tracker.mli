(** Tracking successor *sequences* instead of single successors — the
    alternative metadata model of paper §4.5 / Fig. 6. After each
    occurrence of a file, the next [length] accesses form one symbol; a
    bounded recency list of such symbols is kept per file. The paper
    evaluates this model through successor entropy (Fig. 7) and rejects
    it: longer symbols repeat less, need more metadata, and predict
    worse. This module makes that comparison executable at the predictor
    level (ablation A7). *)

type t

val create : ?capacity:int -> length:int -> unit -> t
(** [create ~length ()] tracks symbols of [length] successors, keeping at
    most [capacity] (default 8) distinct recent symbols per file.
    @raise Invalid_argument when [length <= 0] or [capacity <= 0]. *)

val observe : t -> Agg_trace.File_id.t -> unit
(** Feed the next file of the access sequence. Symbols complete
    [length] observations after the file they belong to. *)

val sequences : t -> Agg_trace.File_id.t -> Agg_trace.File_id.t list list
(** Tracked symbols for a file, most recent first. *)

val predict : t -> Agg_trace.File_id.t -> Agg_trace.File_id.t list option
(** The most recently observed symbol, the model's prediction of the
    next [length] accesses. *)

type accuracy = {
  opportunities : int;  (** positions where a prediction was attempted *)
  full_matches : int;  (** predicted symbol matched all [length] files *)
  first_matches : int;  (** at least the immediate successor was right *)
}

val measure : length:int -> ?capacity:int -> Agg_trace.File_id.t array -> accuracy
(** One online pass: predict before learning, at every position whose
    successor window is complete. *)
