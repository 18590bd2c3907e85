(** Importing real traces from common external formats into the simulator:
    path names are interned into dense file ids via {!File_id.Namespace},
    so any experiment can replay a real system's accesses.

    Formats:
    - [Paths]: one path per line — the least common denominator
      (`lsof`-style dumps, pre-processed trace extracts). Blank lines and
      [#] comments are skipped.
    - [Strace]: `strace -e trace=open,openat` output; the first quoted
      string of each [open]/[openat]/[creat] line is the path. Lines
      whose syscall failed (return [-1]) and unrelated lines are skipped. *)

type format = Paths | Strace

val format_of_string : string -> format option
(** Recognises ["paths"] and ["strace"]. *)

val parse_line : format -> string -> string option
(** The path named by one input line, if any. Exposed for testing. *)

val of_string : ?namespace:File_id.Namespace.t -> format -> string -> Trace.t * File_id.Namespace.t
(** Reads every line of the text, producing an [Open]-event trace and
    the namespace mapping ids back to path names (a fresh one unless
    given). *)

val of_file : ?namespace:File_id.Namespace.t -> format -> string -> Trace.t * File_id.Namespace.t
(** @raise Sys_error when the file cannot be read. *)
