type check = { id : string; claim : string; measured : string; pass : bool }

let find_series panel label =
  List.find_opt (fun s -> s.Experiment.label = label) panel.Experiment.series

let value_exn panel label x =
  match find_series panel label with
  | Some s -> (
      match Experiment.series_value s x with
      | Some y -> y
      | None -> invalid_arg (Printf.sprintf "Report: series %s has no x=%g" label x))
  | None -> invalid_arg (Printf.sprintf "Report: no series %s" label)

let panel_named fig name =
  match List.find_opt (fun p -> p.Experiment.name = name) fig.Experiment.panels with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Report: no panel %s" name)

(* --- Fig. 3 checks ------------------------------------------------- *)

let fig3_checks fig3 =
  let reduction panel g x =
    let lru = value_exn panel "lru" x in
    let grouped = value_exn panel (Printf.sprintf "g%d" g) x in
    if lru = 0.0 then 0.0 else 100.0 *. (lru -. grouped) /. lru
  in
  let server = panel_named fig3 "server" in
  let write = panel_named fig3 "write" in
  let r_g2 = reduction server 2 300.0 in
  let r_g5 = reduction server 5 300.0 in
  let r_g10 = reduction server 10 300.0 in
  let w_g5 = reduction write 5 300.0 in
  [
    {
      id = "fig3.server.g2";
      claim = "groups of 2-3 cut server-workload miss rate by over 40%";
      measured = Printf.sprintf "g2 reduction at cap 300 = %.1f%%" r_g2;
      pass = r_g2 >= 35.0;
    };
    {
      id = "fig3.server.g5";
      claim = "groups of 5+ cut server-workload miss rate by over 60%";
      measured = Printf.sprintf "g5 reduction at cap 300 = %.1f%%" r_g5;
      pass = r_g5 >= 50.0;
    };
    {
      id = "fig3.server.saturation";
      claim = "gains saturate around g=5 but larger groups do not hurt";
      measured = Printf.sprintf "g10 reduction = %.1f%% (g5 = %.1f%%)" r_g10 r_g5;
      pass = r_g10 >= r_g5 -. 5.0;
    };
    {
      id = "fig3.write.modest";
      claim = "the write workload shows the most modest (but positive) gains";
      measured = Printf.sprintf "write g5 reduction = %.1f%% < server g5 = %.1f%%" w_g5 r_g5;
      pass = w_g5 > 0.0 && w_g5 < r_g5;
    };
  ]

(* --- Fig. 4 checks ------------------------------------------------- *)

let fig4_checks fig4 =
  let checks_for name =
    let panel = panel_named fig4 name in
    let lru_large = value_exn panel "lru" 400.0 in
    let g5_large = value_exn panel "g5" 400.0 in
    let lru_small = value_exn panel "lru" 100.0 in
    let g5_small = value_exn panel "g5" 100.0 in
    [
      {
        id = Printf.sprintf "fig4.%s.collapse" name;
        claim = "LRU server hit rate collapses once the filter exceeds the server capacity";
        measured = Printf.sprintf "lru@400 = %.1f%% (vs lru@100 = %.1f%%)" lru_large lru_small;
        pass = lru_large < 10.0 && lru_large < lru_small /. 2.0;
      };
      {
        id = Printf.sprintf "fig4.%s.resilient" name;
        claim = "the aggregating cache keeps 30-60% hit rates where LRU fails";
        measured = Printf.sprintf "g5@400 = %.1f%%" g5_large;
        pass = g5_large >= 25.0;
      };
      {
        id = Printf.sprintf "fig4.%s.improves" name;
        claim = "g5 improves on LRU at small filters too (20%+ relative)";
        measured = Printf.sprintf "g5@100 = %.1f%% vs lru@100 = %.1f%%" g5_small lru_small;
        pass = g5_small >= lru_small *. 1.15;
      };
    ]
  in
  List.concat_map checks_for [ "workstation"; "users"; "server" ]

(* --- Fig. 5 checks ------------------------------------------------- *)

let fig5_checks fig5 =
  let checks_for name =
    let panel = panel_named fig5 name in
    let caps = [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
    let lru_beats_lfu =
      List.for_all (fun c -> value_exn panel "lru" c <= value_exn panel "lfu" c +. 0.005) caps
    in
    let lru4 = value_exn panel "lru" 4.0 in
    let oracle = value_exn panel "oracle" 4.0 in
    [
      {
        id = Printf.sprintf "fig5.%s.recency" name;
        claim = "recency (LRU) successor lists beat frequency (LFU) at every capacity";
        measured = Printf.sprintf "lru<=lfu at all capacities: %b" lru_beats_lfu;
        pass = lru_beats_lfu;
      };
      {
        id = Printf.sprintf "fig5.%s.small-lists" name;
        claim = "a small list (~4) closely matches the oracle";
        measured = Printf.sprintf "lru@4 = %.3f vs oracle = %.3f" lru4 oracle;
        pass = lru4 -. oracle <= 0.08;
      };
    ]
  in
  List.concat_map checks_for [ "workstation"; "server" ]

(* --- Fig. 7 checks ------------------------------------------------- *)

let fig7_checks fig7 =
  let panel = panel_named fig7 "all workloads" in
  let monotone label =
    match find_series panel label with
    | None -> false
    | Some s ->
        let ys = List.map snd s.Experiment.points in
        let rec non_decreasing = function
          | a :: (b :: _ as rest) -> a <= b +. 0.15 && non_decreasing rest
          | _ -> true
        in
        non_decreasing ys
  in
  let at label l = value_exn panel label l in
  let server1 = at "server" 1.0 in
  let all_monotone = List.for_all monotone [ "users"; "write"; "server"; "workstation" ] in
  let server_lowest =
    List.for_all (fun w -> server1 <= at w 1.0) [ "users"; "write"; "workstation" ]
  in
  [
    {
      id = "fig7.monotone";
      claim = "successor entropy rises with successor sequence length for all workloads";
      measured = Printf.sprintf "monotone(all) = %b" all_monotone;
      pass = all_monotone;
    };
    {
      id = "fig7.server.sub-bit";
      claim = "the server workload is under one bit at length 1";
      measured = Printf.sprintf "server@1 = %.2f bits" server1;
      pass = server1 < 1.0;
    };
    {
      id = "fig7.server.most-predictable";
      claim = "the server workload is the most predictable of the four";
      measured = Printf.sprintf "server@1 = %.2f is the minimum: %b" server1 server_lowest;
      pass = server_lowest;
    };
  ]

(* --- Fig. 8 checks ------------------------------------------------- *)

let fig8_checks fig8 =
  let checks_for name =
    let panel = panel_named fig8 name in
    let at label l = value_exn panel label l in
    let tiny_hurts = at "10" 1.0 > at "1" 1.0 -. 0.05 in
    let large_helps =
      at "1000" 1.0 <= at "50" 1.0 +. 0.05 && at "500" 1.0 <= at "50" 1.0 +. 0.05
    in
    [
      {
        id = Printf.sprintf "fig8.%s.tiny-filter" name;
        claim = "a tiny intervening cache (10) reduces predictability";
        measured = Printf.sprintf "H@10 = %.2f vs H@1 = %.2f" (at "10" 1.0) (at "1" 1.0);
        pass = tiny_hurts;
      };
      {
        id = Printf.sprintf "fig8.%s.large-filter" name;
        claim = "large filters (500-1000) yield a more predictable miss stream than 50";
        measured =
          Printf.sprintf "H@1000 = %.2f, H@500 = %.2f, H@50 = %.2f" (at "1000" 1.0) (at "500" 1.0)
            (at "50" 1.0);
        pass = large_helps;
      };
    ]
  in
  List.concat_map checks_for [ "write"; "users" ]

let checks ~fig3 ~fig4 ~fig5 ~fig7 ~fig8 =
  fig3_checks fig3 @ fig4_checks fig4 @ fig5_checks fig5 @ fig7_checks fig7 @ fig8_checks fig8

let table checks =
  let open Agg_util in
  let t =
    Table.create ~title:"Paper-vs-measured checks" ~columns:[ "check"; "claim"; "measured"; "ok" ]
  in
  List.iter
    (fun c -> Table.add_row t [ c.id; c.claim; c.measured; (if c.pass then "PASS" else "FAIL") ])
    checks;
  t

let all_pass checks = List.for_all (fun c -> c.pass) checks
