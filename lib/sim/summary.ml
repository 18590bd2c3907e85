type client_row = {
  workload : string;
  capacity : int;
  lru_fetches : int;
  g5_fetches : int;
  reduction_percent : float;
}

type server_row = {
  workload : string;
  filter_capacity : int;
  lru_hit_rate : float;
  g5_hit_rate : float;
  improvement_percent : float;
}

(* Total: a dead baseline (0 % LRU hit rate) must not leak nan or inf
   into the report. No improvement over nothing is 0; a gain over nothing
   is unbounded and rendered as "n/a" by {!server_table}. *)
let improvement ~lru ~g5 =
  if lru = 0.0 then (if g5 = 0.0 then 0.0 else Float.infinity)
  else 100.0 *. (g5 -. lru) /. lru

let demand_fetches ~files ~capacity ~group_size =
  let config = Agg_core.Config.with_group_size group_size Agg_core.Config.default in
  let cache = Agg_core.Client_cache.create ~config ~capacity () in
  (Agg_core.Client_cache.run_files cache files).Agg_core.Metrics.demand_fetches

let client_rows ?(settings = Experiment.default_settings) ?(capacity = 300) () =
  Experiment.grid ~settings ~rows:Agg_workload.Profile.all ~cols:[ 1; 5 ]
    (fun profile group_size ->
      demand_fetches ~files:(Trace_store.files ~settings profile) ~capacity ~group_size)
  |> List.map (fun (profile, points) ->
         match points with
         | [ (_, lru); (_, g5) ] ->
             {
               workload = profile.Agg_workload.Profile.name;
               capacity;
               lru_fetches = lru;
               g5_fetches = g5;
               reduction_percent =
                 (if lru = 0 then 0.0 else 100.0 *. float_of_int (lru - g5) /. float_of_int lru);
             }
         | _ -> assert false (* grid returns one point per column *))

let server_rows (fig4 : Experiment.figure) =
  List.concat_map
    (fun (panel : Experiment.panel) ->
      let series label =
        match List.find_opt (fun s -> s.Experiment.label = label) panel.Experiment.series with
        | Some s -> s
        | None -> invalid_arg (Printf.sprintf "Summary.server_rows: no series %s" label)
      in
      let lru = series "lru" in
      List.map
        (fun (x, g5) ->
          let lru =
            match Experiment.series_value lru x with
            | Some y -> y
            | None -> invalid_arg (Printf.sprintf "Summary.server_rows: lru has no x=%g" x)
          in
          {
            workload = panel.Experiment.name;
            filter_capacity = int_of_float x;
            lru_hit_rate = lru;
            g5_hit_rate = g5;
            improvement_percent = improvement ~lru ~g5;
          })
        (series "g5").Experiment.points)
    fig4.Experiment.panels

let client_table rows =
  let open Agg_util in
  let table =
    Table.create ~title:"Headline: client demand-fetch reduction (g5 vs LRU)"
      ~columns:[ "workload"; "capacity"; "lru fetches"; "g5 fetches"; "reduction %" ]
  in
  List.iter
    (fun (r : client_row) ->
      Table.add_row table
        [
          r.workload;
          string_of_int r.capacity;
          string_of_int r.lru_fetches;
          string_of_int r.g5_fetches;
          Printf.sprintf "%.1f" r.reduction_percent;
        ])
    rows;
  table

let server_table rows =
  let open Agg_util in
  let table =
    Table.create ~title:"Headline: server hit-rate improvement (g5 vs LRU)"
      ~columns:[ "workload"; "filter"; "lru hit %"; "g5 hit %"; "improvement %" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.workload;
          string_of_int r.filter_capacity;
          Printf.sprintf "%.1f" r.lru_hit_rate;
          Printf.sprintf "%.1f" r.g5_hit_rate;
          (if Float.is_finite r.improvement_percent then
             Printf.sprintf "%.0f" r.improvement_percent
           else "n/a");
        ])
    rows;
  table
