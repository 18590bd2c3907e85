type t = {
  sink : Sink.t;
  sink_for : (label:string -> Sink.t) option;
  profiler : Span.recorder option;
  series : Series.t option;
  trace_ctx : Trace_ctx.t option;
}

let create ?(sink = Sink.noop) ?sink_for ?profiler ?series ?trace_ctx () =
  { sink; sink_for; profiler; series; trace_ctx }

(* Accessors over [t option]: everything degrades to "off" on [None], so
   call sites thread one [?scope] parameter and never match on it. *)
let sink scope = match scope with None -> Sink.noop | Some s -> s.sink

let sink_for scope label =
  match scope with
  | None -> Sink.noop
  | Some s -> ( match s.sink_for with Some f -> f ~label | None -> s.sink)

let profiler scope = match scope with None -> None | Some s -> s.profiler
let series scope = match scope with None -> None | Some s -> s.series
let trace_ctx scope = match scope with None -> None | Some s -> s.trace_ctx
