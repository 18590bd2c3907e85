module Prng = Agg_util.Prng
module Vec = Agg_util.Vec

type span = {
  span_trace_id : int64;
  request : int;
  file : int;
  span_name : string;
  span_cat : string;
  start_us : int;
  dur_us : int;
  depth : int;
}

type t = {
  base : Prng.t;
  sample : float;
  spans : span Vec.t;
  pending : (string * string * float) Vec.t;  (* cat, name, dur_ms *)
  mutable clock_us : int;
  mutable sampled_count : int;
}

let create ?(sample = 1.0) ~seed () =
  if not (sample > 0.0 && sample <= 1.0) then
    invalid_arg (Printf.sprintf "Trace_ctx.create: sample rate %g outside (0, 1]" sample);
  {
    base = Prng.create ~seed ();
    sample;
    spans = Vec.create ();
    pending = Vec.create ();
    clock_us = 0;
    sampled_count = 0;
  }

let check_request request =
  if request < 0 then
    invalid_arg (Printf.sprintf "Trace_ctx: negative request index %d" request)

(* One derived child stream per request; the first draw decides sampling,
   the second is the trace id — both pure in (seed, request). *)
let stream t request = Prng.derive t.base request

let sampled t ~request =
  check_request request;
  Prng.draw_bernoulli (Prng.derive_draw t.base request) ~p:t.sample

let trace_id t ~request =
  check_request request;
  let rng = stream t request in
  let (_ : float) = Prng.float rng 1.0 in
  Prng.bits64 rng

let push t ~cat name ~dur_ms =
  if dur_ms < 0.0 then
    invalid_arg (Printf.sprintf "Trace_ctx.push: negative duration %g" dur_ms);
  Vec.push t.pending (cat, name, dur_ms)

let us_of_ms ms = int_of_float ((ms *. 1000.0) +. 0.5)

let commit t ~request ~file ~latency_ms =
  check_request request;
  if latency_ms < 0.0 then
    invalid_arg (Printf.sprintf "Trace_ctx.commit: negative latency %g" latency_ms);
  if sampled t ~request then begin
    let id = trace_id t ~request in
    t.sampled_count <- t.sampled_count + 1;
    let start_us = t.clock_us in
    Vec.push t.spans
      {
        span_trace_id = id;
        request;
        file;
        span_name = Printf.sprintf "request f%d" file;
        span_cat = "request";
        start_us;
        dur_us = us_of_ms latency_ms;
        depth = 0;
      };
    let cursor = ref start_us in
    Vec.iter
      (fun (cat, name, dur_ms) ->
        let dur_us = us_of_ms dur_ms in
        Vec.push t.spans
          {
            span_trace_id = id;
            request;
            file;
            span_name = name;
            span_cat = cat;
            start_us = !cursor;
            dur_us;
            depth = 1;
          };
        cursor := !cursor + dur_us)
      t.pending
  end;
  Vec.clear t.pending;
  t.clock_us <- t.clock_us + us_of_ms latency_ms

let spans t = Vec.to_list t.spans
let sampled_requests t = t.sampled_count

let attribution t =
  let totals = ref [] in
  Vec.iter
    (fun s ->
      if s.depth > 0 then
        let ms = float_of_int s.dur_us /. 1000.0 in
        match List.assoc_opt s.span_cat !totals with
        | Some acc -> totals := (s.span_cat, acc +. ms) :: List.remove_assoc s.span_cat !totals
        | None -> totals := (s.span_cat, ms) :: !totals)
    t.spans;
  List.sort
    (fun (ca, ta) (cb, tb) -> match compare tb ta with 0 -> compare ca cb | c -> c)
    !totals

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let chrome_json t =
  let n = Vec.length t.spans in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  Vec.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %d, \"dur\": %d, \
            \"pid\": 1, \"tid\": %d, \"args\": {\"trace_id\": \"%Lx\", \"request\": %d, \
            \"file\": %d}}%s\n"
           (json_escape s.span_name) (json_escape s.span_cat) s.start_us s.dur_us s.depth
           s.span_trace_id s.request s.file
           (if i = n - 1 then "" else ",")))
    t.spans;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf
