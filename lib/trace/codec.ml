exception Parse_error of { line : int; message : string }

let header = "#aggtrace v1"

let parse_error line message = raise (Parse_error { line; message })

(* ---------- writing ---------- *)

(* Appends the decimal digits of [n <= 0] without its sign. Working on
   the negative side covers [min_int], whose negation overflows. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

(* [Buffer.add_string buf (string_of_int n)] without the string. *)
let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let add_weights buf weights =
  List.iter
    (fun (file, (w : Agg_cache.Policy.weight)) ->
      Buffer.add_string buf "w ";
      add_int buf file;
      Buffer.add_char buf ' ';
      add_int buf w.size;
      Buffer.add_char buf ' ';
      add_int buf w.cost;
      Buffer.add_char buf '\n')
    (Weights.to_alist weights)

(* Event [i] as the line [seq op client file], read from the columns. *)
let add_event buf trace i =
  add_int buf (Trace.seq trace i);
  Buffer.add_char buf ' ';
  Buffer.add_char buf (Event.op_to_char (Trace.op trace i));
  Buffer.add_char buf ' ';
  add_int buf (Trace.client trace i);
  Buffer.add_char buf ' ';
  add_int buf (Trace.file trace i);
  Buffer.add_char buf '\n'

let add_header buf weights =
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Option.iter (add_weights buf) weights

(* The channel gets the text in chunks of about [chunk] bytes, so the
   buffer stays small however long the trace. *)
let chunk = 65_536

let write_channel ?weights oc trace =
  let buf = Buffer.create (2 * chunk) in
  add_header buf weights;
  for i = 0 to Trace.length trace - 1 do
    add_event buf trace i;
    if Buffer.length buf >= chunk then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  done;
  Buffer.output_buffer oc buf

let to_string ?weights trace =
  let buf = Buffer.create 4096 in
  add_header buf weights;
  for i = 0 to Trace.length trace - 1 do
    add_event buf trace i
  done;
  Buffer.contents buf

(* ---------- reading ---------- *)

(* A line is scanned where it lies, in [s] from [start] to [stop]: no
   copy is trimmed or split off it, and a field is cut out with
   [String.sub] only for an error message or an unusual numeral. The
   fields of the last line read land in one [fields] record per reader,
   so an event line allocates nothing before it is pushed. *)
type kind = Blank | Event_line | Weight_line

type fields = {
  mutable seq : int;
  mutable op : Event.op;
  mutable client : int;
  mutable file : int;
  mutable size : int;
  mutable cost : int;
}

let fields () = { seq = 0; op = Event.Open; client = 0; file = 0; size = 0; cost = 0 }

(* [String.trim]'s blanks. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_blanks s i stop =
  if i < stop && is_blank (String.unsafe_get s i) then skip_blanks s (i + 1) stop else i

let rec trim_end s start i =
  if i > start && is_blank (String.unsafe_get s (i - 1)) then trim_end s start (i - 1) else i

(* Fields are maximal runs of characters other than ' '. *)
let rec field_start s i stop =
  if i < stop && String.unsafe_get s i = ' ' then field_start s (i + 1) stop else i

let rec field_end s i stop =
  if i < stop && String.unsafe_get s i <> ' ' then field_end s (i + 1) stop else i

let rec decimal_from s i stop acc =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> decimal_from s (i + 1) stop ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* The value of [s.[i .. stop - 1]] when it is a run of at most 18
   decimal digits (so it cannot overflow), else -1. Everything else
   [int_of_string_opt] reads (a sign, underscores, a base prefix, an
   out-of-range numeral) goes to it on a copy of the field. *)
let decimal s i stop = if stop - i > 18 then -1 else decimal_from s i stop 0

let int_field ~lineno name s i stop =
  let v = decimal s i stop in
  if v >= 0 then v
  else
    let f = String.sub s i (stop - i) in
    match int_of_string_opt f with
    | Some v when v >= 0 -> v
    | Some _ -> parse_error lineno (name ^ " must be non-negative")
    | None -> parse_error lineno (Printf.sprintf "bad %s %S" name f)

let positive_field ~lineno name s i stop =
  let v = decimal s i stop in
  if v > 0 then v
  else
    let f = String.sub s i (stop - i) in
    match int_of_string_opt f with
    | Some v when v > 0 -> v
    | Some v -> parse_error lineno (Printf.sprintf "%s must be positive (got %d)" name v)
    | None -> parse_error lineno (Printf.sprintf "bad %s %S" name f)

let bad_op ~lineno s i stop =
  parse_error lineno (Printf.sprintf "bad op %S" (String.sub s i (stop - i)))

(* Reads the line [s.[start .. stop - 1]] (line [lineno] of its input)
   into [f]. *)
let parse_line f ~lineno s start stop =
  let start = skip_blanks s start stop in
  let stop = trim_end s start stop in
  if start = stop then Blank
  else if s.[start] = '#' then begin
    if lineno = 1 then begin
      let line = String.sub s start (stop - start) in
      if line <> header then
        parse_error lineno (Printf.sprintf "unknown header %S (expected %S)" line header)
    end;
    Blank
  end
  else
    let a1 = field_end s start stop in
    let b0 = field_start s a1 stop in
    let b1 = field_end s b0 stop in
    let c0 = field_start s b1 stop in
    let c1 = field_end s c0 stop in
    let d0 = field_start s c1 stop in
    let d1 = field_end s d0 stop in
    if d0 = stop || field_start s d1 stop < stop then
      parse_error lineno
        (Printf.sprintf "expected 'seq op client file' or 'w file size cost', got %S"
           (String.sub s start (stop - start)))
    else if a1 - start = 1 && s.[start] = 'w' then begin
      f.file <- int_field ~lineno "file" s b0 b1;
      f.size <- positive_field ~lineno "size" s c0 c1;
      f.cost <- positive_field ~lineno "cost" s d0 d1;
      Weight_line
    end
    else begin
      if b1 - b0 <> 1 then bad_op ~lineno s b0 b1;
      (match Event.op_of_char s.[b0] with Some op -> f.op <- op | None -> bad_op ~lineno s b0 b1);
      f.seq <- int_field ~lineno "seq" s start a1;
      f.client <- int_field ~lineno "client" s c0 c1;
      f.file <- int_field ~lineno "file" s d0 d1;
      Event_line
    end

let rec line_end s i =
  if i = String.length s || String.unsafe_get s i = '\n' then i else line_end s (i + 1)

(* Line [lineno] starts at [start]; as with [String.split_on_char '\n'],
   the text after the last newline is one more (possibly empty) line. *)
let rec read_lines s start lineno f trace weights =
  let stop = line_end s start in
  (match parse_line f ~lineno s start stop with
  | Event_line -> Trace.push trace ~seq:f.seq ~client:f.client ~op:f.op f.file
  | Weight_line -> Weights.set weights f.file { Agg_cache.Policy.size = f.size; cost = f.cost }
  | Blank -> ());
  if stop < String.length s then read_lines s (stop + 1) (lineno + 1) f trace weights

let of_string_weighted s =
  let trace = Trace.create () in
  let weights = Weights.create () in
  read_lines s 0 1 (fields ()) trace weights;
  (trace, weights)

let of_string s = fst (of_string_weighted s)

let write_file ?weights path trace =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel ?weights oc trace)

let read_file_weighted path = of_string_weighted (In_channel.with_open_bin path In_channel.input_all)
let read_file path = fst (read_file_weighted path)
