(* The events are stored as columns: [seq], [client] and [file] are int
   arrays, and [op] holds one byte per event, the codec's character for
   its operation. No event is a heap block of its own, so a trace of n
   events is three n-word arrays and an n-byte string, and the GC never
   scans or promotes it one record at a time. Slots from [length] on are
   spare capacity, shared by all four columns.

   [keys] is the last snapshot {!keys} built, stamped with the length it
   covers (the length of its [key] column). It starts as the empty
   snapshot, which is already current for an empty trace. *)
type keys = { key : File_id.Dense.key array; file : File_id.t array }

type t = {
  mutable seq : int array;
  mutable client : int array;
  mutable file : int array;
  mutable op : Bytes.t;
  mutable length : int;
  keys : keys Atomic.t;
}

let write_byte = Event.op_to_char Event.Write

let create ?(capacity = 16) () =
  if capacity < 0 then invalid_arg "Trace.create: capacity must be non-negative";
  {
    seq = Array.make capacity 0;
    client = Array.make capacity 0;
    file = Array.make capacity 0;
    op = Bytes.create capacity;
    length = 0;
    keys = Atomic.make { key = [||]; file = [||] };
  }

let length t = t.length

(* A typed loop: on an [int array] it compiles to plain stores, where
   [Array.blit] into a major-heap array pays a [caml_modify] per element. *)
let extend (a : int array) ~len ~capacity =
  let b = Array.make capacity 0 in
  for i = 0 to len - 1 do
    Array.unsafe_set b i (Array.unsafe_get a i)
  done;
  b

let grow t =
  let len = t.length in
  let capacity = Int.max 16 (2 * len) in
  t.seq <- extend t.seq ~len ~capacity;
  t.client <- extend t.client ~len ~capacity;
  t.file <- extend t.file ~len ~capacity;
  let op = Bytes.create capacity in
  Bytes.blit t.op 0 op 0 len;
  t.op <- op

let push_byte t ~seq ~client ~byte file =
  let i = t.length in
  if i = Array.length t.file then grow t;
  t.seq.(i) <- seq;
  t.client.(i) <- client;
  t.file.(i) <- file;
  Bytes.set t.op i byte;
  t.length <- i + 1

let push t ~seq ~client ~op file = push_byte t ~seq ~client ~byte:(Event.op_to_char op) file

let append t (e : Event.t) = push t ~seq:e.seq ~client:e.client ~op:e.op e.file

let add_access t ?(client = 0) ?(op = Event.Open) file = push t ~seq:t.length ~client ~op file

let[@inline] check t i name = if i < 0 || i >= t.length then invalid_arg name

let seq t i =
  check t i "Trace.seq: index out of bounds";
  Array.unsafe_get t.seq i

let[@inline] file t i =
  check t i "Trace.file: index out of bounds";
  Array.unsafe_get t.file i

let[@inline] client t i =
  check t i "Trace.client: index out of bounds";
  Array.unsafe_get t.client i

let[@inline] is_write t i =
  check t i "Trace.is_write: index out of bounds";
  Bytes.unsafe_get t.op i = write_byte

(* Every byte in the column came from [Event.op_to_char], so it decodes. *)
let op_at t i =
  match Event.op_of_char (Bytes.unsafe_get t.op i) with Some op -> op | None -> assert false

let op t i =
  check t i "Trace.op: index out of bounds";
  op_at t i

let event t i =
  { Event.seq = t.seq.(i); client = t.client.(i); op = op_at t i; file = t.file.(i) }

let get t i =
  check t i "Trace.get: index out of bounds";
  event t i

let iter f t =
  for i = 0 to t.length - 1 do
    f (event t i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.length - 1 do
    acc := f !acc (event t i)
  done;
  !acc

let files t = Array.sub t.file 0 t.length

(* One interner over the file column; it is dropped once the snapshot is
   built, so a trace keeps n + d words of keys and none of the interner's
   raw-id pages. The key column is a typed copy, filled in place. *)
let build_keys t =
  let dense = File_id.Dense.create () in
  let n = t.length in
  let key = if n = 0 then [||] else Array.make n (File_id.Dense.intern dense t.file.(0)) in
  for i = 1 to n - 1 do
    key.(i) <- File_id.Dense.intern dense t.file.(i)
  done;
  { key; file = File_id.Dense.files dense }

(* A trace only grows, so a snapshot of its current length is current.
   Domains that race on a stale snapshot each build an equal one and
   publish it whole. *)
let keys t =
  let s = Atomic.get t.keys in
  if Array.length s.key = t.length then s
  else
    let s = build_keys t in
    Atomic.set t.keys s;
    s

let of_files ?client fs =
  let t = create ~capacity:(List.length fs) () in
  List.iter (fun f -> add_access t ?client f) fs;
  t

let of_events es =
  let t = create ~capacity:(List.length es) () in
  List.iter (append t) es;
  t

let to_events t =
  let rec from i acc = if i < 0 then acc else from (i - 1) (event t i :: acc) in
  from (t.length - 1) []

let distinct_files t =
  let seen = Hashtbl.create 1024 in
  for i = 0 to t.length - 1 do
    Hashtbl.replace seen t.file.(i) ()
  done;
  Hashtbl.length seen

(* Copies [len] events of [src] from [pos] to the end of [dst], numbering
   them from [dst]'s length. *)
let blit_renumbered src ~pos ~len dst =
  for i = pos to pos + len - 1 do
    push_byte dst ~seq:dst.length ~client:src.client.(i) ~byte:(Bytes.get src.op i) src.file.(i)
  done

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos > t.length - len then invalid_arg "Trace.sub: slice out of bounds";
  let s = create ~capacity:len () in
  blit_renumbered t ~pos ~len s;
  s

let concat a b =
  let t = create ~capacity:(a.length + b.length) () in
  for i = 0 to a.length - 1 do
    push_byte t ~seq:a.seq.(i) ~client:a.client.(i) ~byte:(Bytes.get a.op i) a.file.(i)
  done;
  blit_renumbered b ~pos:0 ~len:b.length t;
  t
