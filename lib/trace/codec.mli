(** Text serialisation of traces.

    The format is one event per line — [seq op client file] with [op] one
    of [o]/[r]/[w] — preceded by a [#aggtrace v1] header; [#] lines and
    blank lines are ignored. Optional [w file size cost] lines, anywhere
    after the header, declare a file's retrieval weight (see {!Weights});
    undeclared files are unit-weighted, and sizes/costs must be positive.
    Real traces (e.g. converted DFSTrace output) in this format can be
    replayed through every experiment in place of the synthetic
    workloads. *)

exception Parse_error of { line : int; message : string }

val header : string

val write_channel : ?weights:Weights.t -> out_channel -> Trace.t -> unit
(** Weight declarations (sorted by file id) are written between the
    header and the event lines. *)

val to_string : ?weights:Weights.t -> Trace.t -> string

val of_string : string -> Trace.t
(** Weight lines are validated but discarded; use {!of_string_weighted}
    to keep them.
    @raise Parse_error on malformed input. *)

val of_string_weighted : string -> Trace.t * Weights.t
(** @raise Parse_error on malformed input, including non-positive
    sizes or costs in weight lines. *)

val write_file : ?weights:Weights.t -> string -> Trace.t -> unit

val read_file : string -> Trace.t
(** {!of_string} of the file's whole text.
    @raise Parse_error on malformed input.
    @raise Sys_error when the file cannot be read. *)

val read_file_weighted : string -> Trace.t * Weights.t
(** {!of_string_weighted} of the file's whole text.
    @raise Parse_error on malformed input.
    @raise Sys_error when the file cannot be read. *)
