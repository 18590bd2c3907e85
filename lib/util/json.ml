type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (string_of_int n)
let num fmt x = Num (Printf.sprintf fmt x)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec write b ~depth = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num s -> Buffer.add_string b s
  | Str s -> Printf.bprintf b "\"%s\"" (escape s)
  | Arr items -> container b ~depth ('[', ']') (List.map (fun v -> (None, v)) items)
  | Obj members -> container b ~depth ('{', '}') (List.map (fun (k, v) -> (Some k, v)) members)

(* Depth 0 is the document and depth 1 its members: a non-empty document
   prints one element per line, so does a member that holds a container,
   and everything else prints inline. *)
and container b ~depth (open_, close) items =
  let nested = function _, (Arr _ | Obj _) -> true | _ -> false in
  let lines = items <> [] && (depth = 0 || (depth = 1 && List.exists nested items)) in
  let pad = String.make (2 * depth) ' ' in
  Buffer.add_char b open_;
  List.iteri
    (fun i (key, v) ->
      if lines then Printf.bprintf b "%s\n%s  " (if i = 0 then "" else ",") pad
      else if i > 0 then Buffer.add_string b ", ";
      Option.iter (fun k -> Printf.bprintf b "\"%s\": " (escape k)) key;
      write b ~depth:(depth + 1) v)
    items;
  if lines then Printf.bprintf b "\n%s" pad;
  Buffer.add_char b close

let to_string v =
  let b = Buffer.create 4096 in
  write b ~depth:0 v;
  Buffer.add_char b '\n';
  Buffer.contents b
