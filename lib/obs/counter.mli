(** What an event stream counts: one record of the twenty counts the
    instrumentation layer keeps, one field per {!Event.t} kind plus the
    byte and cost sums of demand accesses and issued prefetches.

    A run's {!Digest} is one record, and so is every {!Series} window, so
    the two reconcile field by field ({!diff}). Records combine through
    {!add} and {!merge}: merging is associative and commutative with
    {!create} as the identity (pinned by qcheck properties in
    [test/test_obs.ml]), so per-domain records built inside
    [Agg_util.Pool] workers can be combined after a sweep. *)

type t = {
  mutable demand_hits : int;
  mutable demand_misses : int;
  mutable prefetch_issued : int;
  mutable prefetch_promoted : int;
  mutable evicted_speculative : int;
      (** physical evictions of still-unpromoted prefetches *)
  mutable evicted_demand : int;  (** physical evictions of demand-earned residents *)
  mutable evicted_unused : int;
      (** wasted prefetches as the simulator counts them: detected at the
          next demand miss on the evicted file. No single event shows
          one, so {!observe} leaves it alone; {!Digest} replays it. *)
  mutable groups_built : int;
  mutable successor_updates : int;
  mutable fetch_timeouts : int;
  mutable fetch_retries : int;  (** timed-out attempts that were themselves re-issues *)
  mutable degraded_fetches : int;
  mutable client_crashes : int;
  mutable node_routes : int;
  mutable replica_failovers : int;
  mutable ring_rebalances : int;
  mutable bytes_accessed : int;  (** Σ size over demand accesses *)
  mutable bytes_hit : int;  (** Σ size over demand hits *)
  mutable cost_fetched : int;  (** Σ cost over demand misses *)
  mutable cost_prefetched : int;  (** Σ cost over issued prefetches *)
}

val create : unit -> t
(** A fresh record, every count at zero. *)

val observe : t -> size:int -> cost:int -> Event.t -> unit
(** [observe t ~size ~cost event] counts [event] under its kind (a
    [Fetch_timeout] with [attempt > 0] is also a retry) and adds [size]
    and [cost] to the sums a demand hit, a demand miss or an issued
    prefetch moves. [size] and [cost] are the event file's weights and
    are ignored for every other kind. *)

val add : t -> t -> unit
(** [add t x] adds every count of [x] to [t]; [x] is not mutated. *)

val merge : t -> t -> t
(** [merge a b] is a fresh record holding the sum of both; the arguments
    are not mutated. *)

val accesses : t -> int
(** [demand_hits + demand_misses]. *)

val diff : t -> t -> (string * int * int) list
(** [diff a b] names each field whose counts differ, in declaration
    order, with its value in [a] and in [b]; [[]] when [a = b]. *)
