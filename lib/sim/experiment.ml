type series = { label : string; points : (float * float) list }

type panel = { name : string; x_label : string; y_label : string; series : series list }

type figure = { id : string; title : string; panels : panel list }

type settings = { events : int; seed : int; jobs : int }

let default_settings = { events = 60_000; seed = 7; jobs = Agg_util.Pool.default_jobs () }

let quick_settings = { default_settings with events = 6_000 }

module Runner = struct
  type nonrec t = { settings : settings; scope : Agg_obs.Scope.t option }

  let create ?jobs ?scope ?(settings = default_settings) () =
    let settings = match jobs with None -> settings | Some jobs -> { settings with jobs } in
    { settings; scope }

  let profiler t = Agg_obs.Scope.profiler t.scope
  let sink t label = Agg_obs.Scope.sink_for t.scope label
end

let grid ?profiler ?span_label ~settings ~rows ~cols f =
  let eval =
    match profiler with
    | None -> f
    | Some recorder ->
        let label = match span_label with Some l -> l | None -> fun _ _ -> "cell" in
        fun r c -> Agg_obs.Span.record recorder (label r c) (fun () -> f r c)
  in
  let cells = List.concat_map (fun r -> List.map (fun c -> (r, c)) cols) rows in
  let ys = Agg_util.Pool.map ~jobs:settings.jobs (fun (r, c) -> eval r c) cells in
  let width = List.length cols in
  let rec chunk acc row w = function
    | ys when w = 0 -> chunk (List.rev row :: acc) [] width ys
    | y :: ys -> chunk acc (y :: row) (w - 1) ys
    | [] -> List.rev acc
  in
  let chunks = if width = 0 then List.map (fun _ -> []) rows else chunk [] [] width ys in
  List.map2 (fun r ys_row -> (r, List.combine cols ys_row)) rows chunks

let series_value s x =
  Option.map snd (List.find_opt (fun (px, _) -> Float.equal px x) s.points)

let xs_of_panel panel =
  let all = List.concat_map (fun s -> List.map fst s.points) panel.series in
  List.sort_uniq compare all

let panel_table ~figure_id panel =
  let open Agg_util in
  let title = Printf.sprintf "%s — %s (%s vs %s)" figure_id panel.name panel.y_label panel.x_label in
  let columns = panel.x_label :: List.map (fun s -> s.label) panel.series in
  let table = Table.create ~title ~columns in
  List.iter
    (fun x ->
      let cells =
        Printf.sprintf "%g" x
        :: List.map
             (fun s ->
               match series_value s x with
               | Some y -> Printf.sprintf "%.2f" y
               | None -> "-")
             panel.series
      in
      Table.add_row table cells)
    (xs_of_panel panel);
  table

let render_figure fig =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "### %s: %s\n" fig.id fig.title);
  List.iter
    (fun panel -> Buffer.add_string buf (Agg_util.Table.render (panel_table ~figure_id:fig.id panel)))
    fig.panels;
  Buffer.contents buf

let print_figure fig = print_string (render_figure fig)
