(** Machine-readable export of experiment results: CSV, one file per
    panel, columns [x, series...] — ready for gnuplot/matplotlib when the
    terminal tables are not enough. *)

val panel_csv : Experiment.panel -> string
(** CSV text: a header row ["x", label...] then one row per x value;
    missing points are empty cells. Cells containing commas or quotes
    are quoted per RFC 4180. *)

val write_figure : dir:string -> Experiment.figure -> string list
(** Writes each panel's CSV under [dir] (created if missing), one file
    per panel named from the figure id and panel name
    ([fig4-workstation.csv]), and returns the paths written. *)
