(** Successor entropy — the paper's predictability metric (§4.5, Eq. 2).

    For a symbol length L, the "successor symbol" of an occurrence of file
    f is the sequence of the next L accesses. The successor entropy H_S is
    the access-frequency-weighted average, over files occurring more than
    once, of the conditional entropy of that symbol given f, in bits.
    Lower is more predictable; L = 1 is the single-file-successor model
    the aggregating cache uses.

    Occurrences whose successor window is cut off by the end of the trace
    are ignored, and files with fewer than two (complete-window)
    occurrences are excluded so a non-repeating workload is not mistaken
    for a predictable one. *)

val sweep : lengths:int list -> Agg_trace.File_id.t array -> (int * float) list
(** [(l, H_S at l)] for each requested length, in the order given and
    repeats included — one Fig. 7 line. Each file's window positions are
    sorted once, and that one sort serves every length.
    @raise Invalid_argument when a length is [<= 0]. *)

val of_files : ?length:int -> Agg_trace.File_id.t array -> float
(** [of_files files] is H_S with symbol [length] (default 1) in bits, the
    one-length case of {!sweep}. Returns [0.] when no file repeats.
    @raise Invalid_argument when [length <= 0]. *)

val of_trace : ?length:int -> Agg_trace.Trace.t -> float

val per_client : ?length:int -> Agg_trace.Trace.t -> float
(** H_S computed over each client's own subsequence (successions never
    cross client boundaries), access-weighted across clients. Comparing
    this with {!of_trace} isolates how much of a workload's
    unpredictability is mere interleaving of independent streams — the
    §2.2 "identity of the driving client" model choice. *)

val per_file : ?length:int -> Agg_trace.File_id.t array -> (Agg_trace.File_id.t * int * float) list
(** [(file, occurrences, conditional entropy)] for every file occurring
    more than once, in increasing id order — the raw material of Eq. 2,
    read off the same sorted windows as {!sweep}, exposed for inspection
    and for the visualization-style tooling the paper mentions as future
    work.
    @raise Invalid_argument when [length <= 0]. *)
