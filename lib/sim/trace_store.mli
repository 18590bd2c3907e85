(** A process-wide memo table of generated synthetic traces, keyed by
    [(profile, seed, events)].

    Every figure, ablation and summary of a run replays the same handful
    of traces; before this store existed each of them regenerated its
    trace from scratch — dozens of identical generator runs per harness
    invocation. The store generates each distinct trace exactly once and
    hands the {e same} trace value to every caller ([get] is physically
    equal across calls with equal keys).

    Thread-safety: safe to call from any domain, including from inside
    {!Agg_util.Pool} workers. Generation of a given key happens once;
    concurrent requesters of that key block until it is ready, while
    requests for other keys proceed in parallel.

    Shared traces are {e immutable after generation}: [Agg_trace.Trace.t]
    offers no mutation beyond [append]/[add_access], and nothing in this
    repository appends to a generated trace — callers must preserve that
    (treat stored traces and the arrays returned by [files] as
    read-only). Mutating either is a programming error that would corrupt
    every other cell of the run. *)

val get :
  settings:Experiment.settings -> Agg_workload.Profile.t -> Agg_trace.Trace.t
(** [get ~settings profile] is the trace for
    [(profile, settings.seed, settings.events)], generated on first
    request via {!Agg_workload.Generator.generate} and memoized
    thereafter. [settings.jobs] is not part of the key. *)

val files :
  settings:Experiment.settings -> Agg_workload.Profile.t -> Agg_trace.File_id.t array
(** The file column of {!get}'s trace (generating the trace if no
    caller has yet), memoized alongside it (one shared array per key —
    do not mutate). *)

val size : unit -> int
(** Number of distinct traces currently memoized. *)

val reset : unit -> unit
(** Drop every memoized trace (for tests and memory reclamation). Must
    not be called concurrently with {!get}/{!files}. *)
