type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

let check t i name = if i < 0 || i >= t.size then invalid_arg ("Vec." ^ name ^ ": index out of bounds")

let get t i =
  check t i "get";
  t.data.(i)

let set t i v =
  check t i "set";
  t.data.(i) <- v

let grow t v =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let data = Array.make new_cap v in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let push t v =
  if t.size = Array.length t.data then grow t v;
  t.data.(t.size) <- v;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then None
  else begin
    t.size <- t.size - 1;
    Some t.data.(t.size)
  end

let clear t =
  t.data <- [||];
  t.size <- 0

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.size - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_array t = Array.sub t.data 0 t.size

let map f t =
  let out = { data = Array.map f (to_array t); size = t.size } in
  out

let to_list t = Array.to_list (to_array t)
let of_array a = { data = Array.copy a; size = Array.length a }
let of_list l = of_array (Array.of_list l)

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.size then invalid_arg "Vec.sub: slice out of bounds";
  { data = Array.sub t.data pos len; size = len }
