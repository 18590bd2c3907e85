(* Symbols are the int-array slices of the next [length] accesses; the
   per-file distribution is an empirical count table over those slices. *)

let collect ~length files =
  if length <= 0 then invalid_arg "Entropy.of_files: length must be positive";
  let n = Array.length files in
  let per_file : (int, (int array, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 1024 in
  (* Positions 0 .. n - length - 1 have a complete successor window. *)
  for i = 0 to n - length - 1 do
    let f = files.(i) in
    let symbol = Array.sub files (i + 1) length in
    let table =
      match Hashtbl.find_opt per_file f with
      | Some t -> t
      | None ->
          let t = Hashtbl.create 4 in
          Hashtbl.replace per_file f t;
          t
    in
    let c = Option.value ~default:0 (Hashtbl.find_opt table symbol) in
    Hashtbl.replace table symbol (c + 1)
  done;
  per_file

let conditional_entropy table =
  let total = Hashtbl.fold (fun _ c acc -> acc + c) table 0 in
  if total = 0 then 0.0
  else
    Hashtbl.fold
      (fun _ c acc ->
        let p = float_of_int c /. float_of_int total in
        acc -. (p *. Agg_util.Stats.log2 p))
      table 0.0

let occurrences table = Hashtbl.fold (fun _ c acc -> acc + c) table 0

(* [files] with each id replaced by its rank among the distinct ids, so
   the largest label is below the stream length. Ranks keep the ids'
   order, so every window comparison and the increasing-id order of the
   per-file sum below come out the same. *)
let dense_labels files =
  let sorted = Array.copy files in
  Array.sort Int.compare sorted;
  let distinct = ref 0 in
  Array.iteri
    (fun i f ->
      if i = 0 || f <> sorted.(!distinct - 1) then begin
        sorted.(!distinct) <- f;
        incr distinct
      end)
    sorted;
  let rec rank f lo hi =
    let mid = (lo + hi) lsr 1 in
    if sorted.(mid) = f then mid
    else if sorted.(mid) < f then rank f (mid + 1) hi
    else rank f lo mid
  in
  Array.map (fun f -> rank f 0 !distinct) files

(* The sweep-facing entry point avoids the symbol tables entirely: window
   positions are bucketed by file id into one CSR layout (counts / prefix
   starts / positions), and each file's symbol distribution is recovered
   by sorting its positions with an in-place window comparison. No symbol
   arrays are materialised and nothing is hashed, which is what makes the
   20-length Fig. 7 sweep cheap. The layout is sized by the largest id, so
   a stream whose ids reach its length (a sparse id space) is relabelled
   densely first. *)
let of_files ?(length = 1) files =
  if length <= 0 then invalid_arg "Entropy.of_files: length must be positive";
  let n = Array.length files in
  let files = if Array.exists (fun f -> f >= n) files then dense_labels files else files in
  (* positions 0 .. windows - 1 have a complete successor window *)
  let windows = n - length in
  if windows <= 0 then 0.0
  else begin
    let max_id = ref 0 in
    for i = 0 to windows - 1 do
      if files.(i) > !max_id then max_id := files.(i)
    done;
    let counts = Array.make (!max_id + 1) 0 in
    for i = 0 to windows - 1 do
      counts.(files.(i)) <- counts.(files.(i)) + 1
    done;
    let starts = Array.make (!max_id + 1) 0 in
    let acc = ref 0 in
    for f = 0 to !max_id do
      starts.(f) <- !acc;
      acc := !acc + counts.(f)
    done;
    let positions = Array.make windows 0 in
    let fill = Array.copy starts in
    for i = 0 to windows - 1 do
      let f = files.(i) in
      positions.(fill.(f)) <- i;
      fill.(f) <- fill.(f) + 1
    done;
    let cmp_window a b =
      let rec go j =
        if j = length then 0
        else
          let c = compare files.(a + 1 + j) files.(b + 1 + j) in
          if c <> 0 then c else go (j + 1)
      in
      go 0
    in
    let weighted = ref 0.0 in
    let weight_total = ref 0 in
    for f = 0 to !max_id do
      let occ = counts.(f) in
      if occ >= 2 then begin
        let sub = Array.sub positions starts.(f) occ in
        Array.sort cmp_window sub;
        (* equal windows are now adjacent: fold run lengths into H *)
        let total = float_of_int occ in
        let h = ref 0.0 in
        let run_start = ref 0 in
        for k = 1 to occ do
          if k = occ || cmp_window sub.(k) sub.(!run_start) <> 0 then begin
            let p = float_of_int (k - !run_start) /. total in
            h := !h -. (p *. Agg_util.Stats.log2 p);
            run_start := k
          end
        done;
        weighted := !weighted +. (total *. !h);
        weight_total := !weight_total + occ
      end
    done;
    if !weight_total = 0 then 0.0 else !weighted /. float_of_int !weight_total
  end

let of_trace ?length trace = of_files ?length (Agg_trace.Trace.files trace)

let sweep ~lengths files = List.map (fun l -> (l, of_files ~length:l files)) lengths

let filtered_sweep ~filter_capacities ~lengths trace =
  List.map
    (fun capacity ->
      let missed = Agg_trace.Filter.miss_stream ~capacity trace in
      (capacity, sweep ~lengths (Agg_trace.Trace.files missed)))
    filter_capacities

let per_client ?length trace =
  let streams : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  Agg_trace.Trace.iter
    (fun (e : Agg_trace.Event.t) ->
      match Hashtbl.find_opt streams e.Agg_trace.Event.client with
      | Some acc -> acc := e.Agg_trace.Event.file :: !acc
      | None -> Hashtbl.replace streams e.Agg_trace.Event.client (ref [ e.Agg_trace.Event.file ]))
    trace;
  let weighted = ref 0.0 in
  let total = ref 0 in
  Hashtbl.iter
    (fun _client acc ->
      let files = Array.of_list (List.rev !acc) in
      let n = Array.length files in
      weighted := !weighted +. (float_of_int n *. of_files ?length files);
      total := !total + n)
    streams;
  if !total = 0 then 0.0 else !weighted /. float_of_int !total

let per_file ?(length = 1) files =
  let tables = collect ~length files in
  Hashtbl.fold
    (fun file table acc ->
      let occ = occurrences table in
      if occ >= 2 then (file, occ, conditional_entropy table) :: acc else acc)
    tables []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
