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

  (* [keys] maps a file to its key and is the one table keyed by raw id;
     it holds every key given out, so its length is the next key.
     [files.(k)] is key [k]'s file. *)
  type t = { keys : Int_table.t; mutable files : file array }

  let create () = { keys = Int_table.create (); files = Array.make 64 0 }

  (* A typed copy: [Array.blit] into a major-heap array would call
     [caml_modify] per element. *)
  let grow t =
    let files = Array.make (2 * Array.length t.files) 0 in
    for i = 0 to Array.length t.files - 1 do
      files.(i) <- t.files.(i)
    done;
    t.files <- files

  let add t file =
    let k = Int_table.length t.keys in
    Int_table.set t.keys file k;
    if k = Array.length t.files then grow t;
    t.files.(k) <- file;
    k

  let intern t file =
    let k = Int_table.get t.keys file in
    if k >= 0 then k else add t file

  let find t file = match Int_table.get t.keys file with -1 -> None | k -> Some k

  let file t k =
    if k < 0 || k >= Int_table.length t.keys then invalid_arg "File_id.Dense.file: not a key";
    Array.unsafe_get t.files k

  let files t = Array.sub t.files 0 (Int_table.length t.keys)
end
