(** One record for everything observability: the event sink(s), the
    span profiler, the windowed telemetry series and the request-trace
    context that used to travel as four separate optional arguments.

    A scope is threaded as a single [t option] parameter defaulting to
    [None] — telemetry off — and every accessor here takes that option
    directly, so call sites never match on it. With [None] (or
    [create ()]) each accessor returns the no-op/absent value and the instrumented
    code paths are never entered: outputs stay byte-identical to a run
    with no telemetry at all. *)

type t = {
  sink : Sink.t;  (** single-run event sink; {!Sink.noop} = off *)
  sink_for : (label:string -> Sink.t) option;
      (** per-cell sinks for sweeps, keyed by the cell's span label
          (e.g. ["fig3/server/g5/c300"]). Because each cell owns its
          sink, event sequences are identical for any job count — supply
          a distinct sink per label when running with several domains.
          [None] = every cell gets [sink]. *)
  profiler : Span.recorder option;  (** wall-clock span recorder *)
  series : Series.t option;  (** windowed time-series telemetry *)
  trace_ctx : Trace_ctx.t option;  (** sampled request-trace spans *)
}

val create :
  ?sink:Sink.t ->
  ?sink_for:(label:string -> Sink.t) ->
  ?profiler:Span.recorder ->
  ?series:Series.t ->
  ?trace_ctx:Trace_ctx.t ->
  unit ->
  t
(** [create ()] has everything off, as [None] does; each argument
    switches one instrument on. *)

val sink : t option -> Sink.t
(** The single-run sink; {!Sink.noop} when the scope is [None]. *)

val sink_for : t option -> string -> Sink.t
(** The sink for the cell labelled [label]: [sink_for ~label] when set,
    else the scope's [sink], else {!Sink.noop}. *)

val profiler : t option -> Span.recorder option
val series : t option -> Series.t option
val trace_ctx : t option -> Trace_ctx.t option
