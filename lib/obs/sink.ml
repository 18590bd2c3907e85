type t =
  | Noop
  | Memory of Event.t Agg_util.Vec.t
  | Jsonl of { oc : out_channel; buf : Buffer.t; mutable seq : int }
  | Sampled of {
      inner : t;
      live : bool;  (** [enabled inner], fixed at construction *)
      base : Agg_util.Prng.t;
      rate : float;
      mutable offered : int;
    }

(* Flush threshold for the buffered JSONL sink: one event line is ~60-120
   bytes, so this amortises the per-event write into ~500-1000-line
   batches without holding more than 64 KiB. *)
let jsonl_buffer_bytes = 65_536

(* Not recursive, so it inlines at every [if Sink.enabled obs] call site:
   a sampled sink reads the verdict it recorded about its inner sink. *)
let enabled = function Noop -> false | Memory _ | Jsonl _ -> true | Sampled s -> s.live

let noop = Noop
let memory () = Memory (Agg_util.Vec.create ())
let jsonl oc = Jsonl { oc; buf = Buffer.create jsonl_buffer_bytes; seq = 0 }

let sampled ~seed ~rate inner =
  if not (rate > 0.0 && rate <= 1.0) then
    invalid_arg (Printf.sprintf "Sink.sampled: rate %g outside (0, 1]" rate);
  Sampled { inner; live = enabled inner; base = Agg_util.Prng.create ~seed (); rate; offered = 0 }

let rec emit t event =
  match t with
  | Noop -> ()
  | Memory vec -> Agg_util.Vec.push vec event
  | Jsonl j ->
      Buffer.add_string j.buf (Event.to_json ~seq:j.seq event);
      Buffer.add_char j.buf '\n';
      j.seq <- j.seq + 1;
      if Buffer.length j.buf >= jsonl_buffer_bytes then begin
        Buffer.output_buffer j.oc j.buf;
        Buffer.clear j.buf
      end
  | Sampled s ->
      let index = s.offered in
      s.offered <- index + 1;
      if Agg_util.Prng.draw_bernoulli (Agg_util.Prng.derive_draw s.base index) ~p:s.rate then
        emit s.inner event

let rec events = function
  | Noop | Jsonl _ -> []
  | Memory vec -> Agg_util.Vec.to_list vec
  | Sampled s -> events s.inner

let rec emitted = function
  | Noop -> 0
  | Memory vec -> Agg_util.Vec.length vec
  | Jsonl j -> j.seq
  | Sampled s -> emitted s.inner

let offered = function Sampled s -> s.offered | Noop | Memory _ | Jsonl _ -> 0

let rec flush = function
  | Noop | Memory _ -> ()
  | Jsonl j ->
      Buffer.output_buffer j.oc j.buf;
      Buffer.clear j.buf;
      Stdlib.flush j.oc
  | Sampled s -> flush s.inner
