(** A per-file list of potential immediate successors with a small fixed
    capacity (paper §3, §4.4). The replacement policy for this *metadata*
    is the paper's central design question: recency (LRU) versus frequency
    (LFU); recency wins consistently (Fig. 5). *)

type policy =
  | Recency  (** keep the most recently observed successors (LRU) *)
  | Frequency  (** keep the most frequently observed successors (LFU) *)

type t

val create : capacity:int -> policy:policy -> t
(** @raise Invalid_argument when [capacity <= 0]. *)

val size : t -> int

val observe : t -> Agg_trace.File_id.t -> unit
(** [observe t succ] records that [succ] just followed this list's file,
    updating ranks and evicting per the policy when full. *)

val mem : t -> Agg_trace.File_id.t -> bool

val ranked : t -> Agg_trace.File_id.t list
(** Successors most-likely first: by recency under [Recency], by
    observation count (most recent first on ties) under [Frequency]. *)

val top : t -> Agg_trace.File_id.t option
(** The most likely successor, if any. *)

val observe_slots :
  int array -> off:int -> len:int -> capacity:int -> Agg_trace.File_id.t -> int
(** [observe_slots slots ~off ~len ~capacity succ] applies one [Recency]
    observation to the bare list region [slots.(off) ..
    slots.(off + len - 1)] (most recent first): a resident successor moves
    to the front, a fresh one is pushed, evicting the least recent entry
    when the region already holds [capacity]. Returns the new live length.
    The region must have room for [min (len + 1) capacity] entries.

    This is the storage primitive behind {!observe}, and [Tracker] uses it
    to keep every file's list in one bump-allocated array. There a list
    of [len] entries sits in a region of [min capacity (2^⌈log₂ len⌉)]
    slots; when a successor that is not resident meets a full region
    below [capacity], [Tracker] first moves the list to a region twice
    the size, then calls this with its own [capacity], so every
    move-to-front and eviction still happens here. *)
