(** Adaptive group sizing — the paper's future-work question "forming
    groups of arbitrary size", answered with a feedback controller: watch
    the utilisation of recent speculative fetches and grow the group while
    speculation keeps paying, shrink it when prefetched files die unused.

    Every [window] demand fetches, the utilisation over that window
    (members used / members issued) is compared with two thresholds:
    above [raise_above] the group grows by one (up to [max_group]); below
    [lower_below] it shrinks by one (down to [min_group]). With
    [min_group = max_group] this is exactly a fixed-size cache. *)

type t

val create :
  ?config:Config.t ->
  ?obs:Agg_obs.Sink.t ->
  ?min_group:int ->
  ?max_group:int ->
  ?window:int ->
  ?raise_above:float ->
  ?lower_below:float ->
  capacity:int ->
  unit ->
  t
(** Defaults: groups adapt within [1, 10] starting from
    [config.group_size], window 200 demand fetches, thresholds 0.55/0.30.
    [obs] is passed through to the underlying {!Client_cache} unchanged.
    @raise Invalid_argument on an empty or inverted group range. *)

val access : t -> Agg_trace.File_id.t -> bool
val run : t -> Agg_trace.Trace.t -> Metrics.client

val current_group_size : t -> int

val trajectory : t -> (int * int) list
(** [(demand fetches so far, new group size)] at each adaptation, oldest
    first — how the controller moved over the run. *)
