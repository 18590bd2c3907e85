(* One sort serves every symbol length. Window positions are bucketed by
   file id into one CSR layout (counts / prefix starts / positions), and
   each file's positions are sorted once, by an in-place comparison of
   their successor windows of up to the longest requested length; a
   window cut short by the end of the stream sorts before its extensions.
   A length L's symbols are then the runs of adjacent complete windows
   (at least L successors) whose common prefix with the previous window
   is at least L. A window too short for L never sits inside such a run,
   because its common prefix with the next window is shorter than L, and
   runs and files come out in the order a sort by L alone gives, so each
   entropy sums the same terms in the same order. The layout is sized by
   the largest id, so a stream whose ids reach its length (a sparse id
   space) is relabelled densely first. *)

(* [files] with each id replaced by its rank among the distinct ids, so
   the largest label is below the stream length, and the distinct ids in
   increasing order, so [ids.(label)] is the id a label stands for. Ranks
   keep the ids' order, so every window comparison and the increasing-id
   order of the per-file sum come out the same. *)
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
  (Array.map (fun f -> rank f 0 !distinct) files, Array.sub sorted 0 !distinct)

(* the successor window of position [i], at most [width] long *)
let window_length ~n ~width i = Int.min width (n - 1 - i)

let compare_windows files ~n ~width a b =
  let wa = window_length ~n ~width a and wb = window_length ~n ~width b in
  let w = Int.min wa wb in
  let rec go j =
    if j = w then Int.compare wa wb
    else
      let c = Int.compare files.(a + 1 + j) files.(b + 1 + j) in
      if c <> 0 then c else go (j + 1)
  in
  go 0

let common_prefix files ~n ~width a b =
  let w = Int.min (window_length ~n ~width a) (window_length ~n ~width b) in
  let rec go j = if j < w && files.(a + 1 + j) = files.(b + 1 + j) then go (j + 1) else j in
  go 0

(* [walk ~lengths files emit] calls [emit k file occurrences h] for the
   [k]-th of [lengths] and every file with at least two complete windows
   at that length, files in increasing id order; [file] is the stream's
   own id and [h] its conditional entropy in bits. *)
let walk ~lengths files emit =
  if Array.exists (fun l -> l <= 0) lengths then
    invalid_arg "Entropy.of_files: length must be positive";
  let n = Array.length files in
  let shortest = Array.fold_left Int.min max_int lengths in
  let width = Array.fold_left Int.max 0 lengths in
  (* positions 0 .. windows - 1 have a complete window at some length *)
  let windows = n - shortest in
  if windows > 0 then begin
    let files, ids =
      if Array.exists (fun f -> f >= n) files then
        let labels, ids = dense_labels files in
        (labels, Some ids)
      else (files, None)
    in
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
    (* prefix.(k), for k >= 1: common prefix of the k-th sorted window
       with the one before it *)
    let prefix = Array.make windows 0 in
    for f = 0 to !max_id do
      let occ = counts.(f) in
      if occ >= 2 then begin
        let sub = Array.sub positions starts.(f) occ in
        Array.sort (compare_windows files ~n ~width) sub;
        for k = 1 to occ - 1 do
          prefix.(k) <- common_prefix files ~n ~width sub.(k - 1) sub.(k)
        done;
        let file = match ids with Some ids -> ids.(f) | None -> f in
        Array.iteri
          (fun li length ->
            (* complete at [length]: positions before n - length *)
            let bound = n - length in
            let total = ref 0 in
            Array.iter (fun i -> if i < bound then incr total) sub;
            if !total >= 2 then begin
              let total_f = float_of_int !total in
              let h = ref 0.0 in
              let run = ref 0 in
              let close_run () =
                if !run > 0 then begin
                  let p = float_of_int !run /. total_f in
                  h := !h -. (p *. Agg_util.Stats.log2 p)
                end
              in
              for k = 0 to occ - 1 do
                if sub.(k) < bound then
                  if k > 0 && prefix.(k) >= length then incr run
                  else begin
                    close_run ();
                    run := 1
                  end
              done;
              close_run ();
              emit li file !total !h
            end)
          lengths
      end
    done
  end

let sweep ~lengths files =
  let lengths = Array.of_list lengths in
  let weighted = Array.make (Array.length lengths) 0.0 in
  let weight_total = Array.make (Array.length lengths) 0 in
  walk ~lengths files (fun k _ occ h ->
      weighted.(k) <- weighted.(k) +. (float_of_int occ *. h);
      weight_total.(k) <- weight_total.(k) + occ);
  List.init (Array.length lengths) (fun k ->
      ( lengths.(k),
        if weight_total.(k) = 0 then 0.0 else weighted.(k) /. float_of_int weight_total.(k) ))

let of_files ?(length = 1) files = snd (List.hd (sweep ~lengths:[ length ] files))

let of_trace ?length trace = of_files ?length (Agg_trace.Trace.files trace)

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
  let rows = ref [] in
  walk ~lengths:[| length |] files (fun _ file occ h -> rows := (file, occ, h) :: !rows);
  List.rev !rows
