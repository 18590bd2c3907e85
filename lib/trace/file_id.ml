type t = int

let equal = Int.equal
let compare = Int.compare
let hash = Hashtbl.hash
let pp ppf id = Format.fprintf ppf "f%d" id

module Namespace = struct
  type id = int

  type t = { by_name : (string, id) Hashtbl.t; names : string Agg_util.Vec.t }

  let create () = { by_name = Hashtbl.create 256; names = Agg_util.Vec.create () }

  let intern t name =
    match Hashtbl.find_opt t.by_name name with
    | Some id -> id
    | None ->
        let id = Agg_util.Vec.length t.names in
        Hashtbl.replace t.by_name name id;
        Agg_util.Vec.push t.names name;
        id

  let find t name = Hashtbl.find_opt t.by_name name

  let name t id =
    if id < 0 || id >= Agg_util.Vec.length t.names then None else Some (Agg_util.Vec.get t.names id)

  let count t = Agg_util.Vec.length t.names
  let iter t f = Agg_util.Vec.iteri (fun id n -> f n id) t.names
end

module Dense = struct
  module Int_table = Agg_util.Int_table

  type file = t
  type key = int

  (* [near] maps a file below [far_bound] to its key and [far] the rest,
     so no directory spans ids near 10^12. Together they hold every key
     given out, so their lengths add up to the next key. [files.(k)] is
     key [k]'s file. *)
  type t = { near : Int_table.t; far : (file, key) Hashtbl.t; mutable files : file array }

  let far_bound = 1 lsl 30
  let create () = { near = Int_table.create (); far = Hashtbl.create 16; files = Array.make 64 0 }
  let count t = Int_table.length t.near + Hashtbl.length t.far

  (* A typed copy: [Array.blit] into a major-heap array would call
     [caml_modify] per element. *)
  let grow t =
    let files = Array.make (2 * Array.length t.files) 0 in
    for i = 0 to Array.length t.files - 1 do
      files.(i) <- t.files.(i)
    done;
    t.files <- files

  let add t file =
    let k = count t in
    if file < far_bound then Int_table.set t.near file k else Hashtbl.replace t.far file k;
    if k = Array.length t.files then grow t;
    t.files.(k) <- file;
    k

  (* [near] never holds a far file, so a far file's probe misses. *)
  let intern t file =
    let k = Int_table.get t.near file in
    if k >= 0 then k
    else if file < far_bound then add t file
    else match Hashtbl.find_opt t.far file with Some k -> k | None -> add t file

  let find t file =
    match Int_table.get t.near file with
    | -1 -> if file < far_bound then None else Hashtbl.find_opt t.far file
    | k -> Some k

  let file t k =
    if k < 0 || k >= count t then invalid_arg "File_id.Dense.file: not a key";
    Array.unsafe_get t.files k

  let files t = Array.sub t.files 0 (count t)
end
