(* A two-level direct index: key [k] lives in slot [k land page_mask] of
   page [k lsr page_bits]. Directory entries no key has reached share
   [empty_page], which is all [absent] and never written: [set] swaps in
   a fresh page before writing, [remove] writes only a slot that holds a
   value, and [clear] skips the shared page. [lsr] shifts a negative
   key's sign bit into a directory index far past the end, so one bound
   test covers both. Every page holds exactly [page_size] slots, so
   [k land page_mask] needs no bound test.

   The probes are [@inline]: without flambda only functions below a
   small size threshold are inlined across modules, and these sit on
   every access of the cache and successor layers. [set] inlines only
   the write into a page that exists; argument checks, directory growth
   and page allocation stay out of line in [set_slow]. *)

let page_bits = 9
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let absent = -1
let empty_page = Array.make page_size absent

type t = { mutable dir : int array array; mutable count : int }

let create ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Int_table.create: capacity must be positive";
  { dir = Array.make (((capacity - 1) lsr page_bits) + 1) empty_page; count = 0 }

let[@inline] get t k =
  let p = k lsr page_bits in
  let dir = t.dir in
  if p >= Array.length dir then absent
  else Array.unsafe_get (Array.unsafe_get dir p) (k land page_mask)

let[@inline] mem t k = get t k >= 0

(* Pages move by pointer: growth never copies a page. *)
let grow t p =
  let dir = Array.make (Int.max (2 * Array.length t.dir) (p + 1)) empty_page in
  Array.blit t.dir 0 dir 0 (Array.length t.dir);
  t.dir <- dir

let add_page t p =
  let page = Array.make page_size absent in
  t.dir.(p) <- page;
  page

let set_slow t k v =
  if k < 0 then invalid_arg "Int_table.set: negative key";
  if v < 0 then invalid_arg "Int_table.set: negative value";
  let p = k lsr page_bits in
  if p >= Array.length t.dir then grow t p;
  let page = Array.unsafe_get t.dir p in
  let page = if page == empty_page then add_page t p else page in
  let i = k land page_mask in
  if Array.unsafe_get page i < 0 then t.count <- t.count + 1;
  Array.unsafe_set page i v

(* A negative key shifts past the directory and a negative value fails
   the first test, so both raise in [set_slow] before anything is
   written. *)
let[@inline] set t k v =
  let p = k lsr page_bits in
  let dir = t.dir in
  if v < 0 || p >= Array.length dir then set_slow t k v
  else begin
    let page = Array.unsafe_get dir p in
    if page == empty_page then set_slow t k v
    else begin
      let i = k land page_mask in
      if Array.unsafe_get page i < 0 then t.count <- t.count + 1;
      Array.unsafe_set page i v
    end
  end

let[@inline] remove t k =
  let p = k lsr page_bits in
  if p < Array.length t.dir then begin
    let page = Array.unsafe_get t.dir p in
    let i = k land page_mask in
    if Array.unsafe_get page i >= 0 then begin
      Array.unsafe_set page i absent;
      t.count <- t.count - 1
    end
  end

let length t = t.count

let clear t =
  Array.iter (fun page -> if page != empty_page then Array.fill page 0 page_size absent) t.dir;
  t.count <- 0

let iter t f =
  Array.iteri
    (fun p page ->
      if page != empty_page then
        Array.iteri (fun i v -> if v >= 0 then f ((p lsl page_bits) lor i) v) page)
    t.dir
