(** Fig. 7 — successor entropy as a function of successor-sequence length,
    one series per workload: single-file successors are the most
    predictable, and the [server] workload is the most predictable of the
    four. *)

val default_lengths : int list
(** 1–20. *)

val run : ?lengths:int list -> Experiment.Runner.t -> Experiment.figure
(** A single panel with all four workload series, under the runner's
    settings and scope. Each workload is one cell covering every length
    (spans named ["fig7/<workload>"]; this figure emits no events, so the
    scope's sinks are unused). *)
