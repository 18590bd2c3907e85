(** Request-lifecycle tracing over the simulated clock.

    A trace context follows individual demand requests through the
    distributed path — client lookup, per-attempt timeout/backoff,
    replica failover, group fetch or degraded fallback — and records each
    sampled request as a small span tree placed on the {e simulated}
    millisecond clock (the running sum of per-access latencies), exported
    in the same Chrome [trace_event] format as {!Span.chrome_json}.

    Determinism: whether request [i] is sampled, and its 64-bit trace id,
    are pure functions of the context seed and [i] (drawn from
    [Agg_util.Prng.derive base i]), so traces are head-sampled
    identically run-to-run, for any [--jobs] value, and independent of
    how many requests were sampled before [i].

    Protocol per access: the simulator checks {!sampled} once, {!push}es
    the phases the request actually went through when it is, and always
    {!commit}s with the access's total latency — commit materialises the
    span tree for sampled requests and advances the simulated clock for
    every request, so sampled spans sit at their true offsets. *)

type t

val create : ?sample:float -> seed:int -> unit -> t
(** A fresh context. [sample] is the head-sampling rate in [(0, 1]]
    (default [1.0]: every request is traced).
    @raise Invalid_argument when [sample] is outside [(0, 1]]. *)

val sampled : t -> request:int -> bool
(** Is the request at access index [request] traced? Pure in
    [(seed, request)].
    @raise Invalid_argument when [request] is negative. *)

val trace_id : t -> request:int -> int64
(** The request's deterministic 64-bit trace id (drawn from the same
    derived stream as the sampling decision).
    @raise Invalid_argument when [request] is negative. *)

val push : t -> cat:string -> string -> dur_ms:float -> unit
(** Buffers one phase of the current request: a [cat]egory (["hit"],
    ["timeout"], ["backoff"], ["route"], ["fetch"], ["degraded"], ...),
    a display name and a simulated duration. Call only for requests
    {!sampled} answered [true] for — pushes for unsampled requests are
    discarded at the next {!commit}.
    @raise Invalid_argument when [dur_ms] is negative. *)

val commit : t -> request:int -> file:int -> latency_ms:float -> unit
(** Ends the request at access index [request]: when it is sampled, a
    root span of [latency_ms] plus the {!push}ed phases (laid out
    sequentially) are recorded at the current simulated time under the
    request's {!trace_id}. Always advances the simulated clock by
    [latency_ms] and clears the phase buffer — call it for {e every}
    access, sampled or not.
    @raise Invalid_argument when [request] or [latency_ms] is negative. *)

type span = {
  span_trace_id : int64;
  request : int;  (** access index of the owning request *)
  file : int;
  span_name : string;
  span_cat : string;  (** ["request"] for roots, the {!push}ed category otherwise *)
  start_us : int;  (** simulated microseconds from the run's start *)
  dur_us : int;
  depth : int;  (** 0 for the root, 1 for its phases *)
}

val spans : t -> span list
(** Every recorded span, in recording order (roots before their phases). *)

val sampled_requests : t -> int
(** Requests committed while sampled. *)

val attribution : t -> (string * float) list
(** Total simulated milliseconds per phase category across all sampled
    requests, sorted by descending total (ties by name) — the
    critical-path profile of where sampled requests spent their time.
    Root spans are excluded (they are the sums of their phases). *)

val chrome_json : t -> string
(** The spans as a Chrome [trace_event] document ([ph = "X"], simulated
    microsecond timestamps, the trace id and file in [args]), loadable
    in [chrome://tracing] or Perfetto. Deterministic bytes. *)
