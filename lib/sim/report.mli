(** Automated paper-vs-measured comparison: each check encodes one of the
    paper's qualitative claims and evaluates it against the figures a run
    already computed. The bench harness prints this table; EXPERIMENTS.md
    records a run of it. *)

type check = {
  id : string;  (** e.g. "fig3.server.g5" *)
  claim : string;  (** the paper's statement being tested *)
  measured : string;  (** what this run produced *)
  pass : bool;
}

val checks :
  fig3:Experiment.figure ->
  fig4:Experiment.figure ->
  fig5:Experiment.figure ->
  fig7:Experiment.figure ->
  fig8:Experiment.figure ->
  check list
(** The 24 checks, read off the figures of {!Fig3.run}, {!Fig4.run},
    {!Fig5.run}, {!Fig7.run} and {!Fig8.run}. Simulates nothing.
    @raise Invalid_argument when a figure lacks a panel, series or point
    a check reads. *)

val table : check list -> Agg_util.Table.t
val all_pass : check list -> bool
