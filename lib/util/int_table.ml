type t = { mutable data : int array; mutable count : int }

let absent = -1

let create ?(capacity = 16) () =
  if capacity < 1 then invalid_arg "Int_table.create: capacity must be positive";
  { data = Array.make capacity absent; count = 0 }

let get t k = if k < 0 || k >= Array.length t.data then absent else t.data.(k)
let mem t k = get t k >= 0

let grow t k =
  let cap = Int.max (2 * Array.length t.data) (k + 1) in
  let data = Array.make cap absent in
  Array.blit t.data 0 data 0 (Array.length t.data);
  t.data <- data

let set t k v =
  if k < 0 then invalid_arg "Int_table.set: negative key";
  if v < 0 then invalid_arg "Int_table.set: negative value";
  if k >= Array.length t.data then grow t k;
  if t.data.(k) < 0 then t.count <- t.count + 1;
  t.data.(k) <- v

let remove t k =
  if k >= 0 && k < Array.length t.data && t.data.(k) >= 0 then begin
    t.data.(k) <- absent;
    t.count <- t.count - 1
  end

let length t = t.count

let clear t =
  Array.fill t.data 0 (Array.length t.data) absent;
  t.count <- 0

let iter t f =
  Array.iteri (fun k v -> if v >= 0 then f k v) t.data
