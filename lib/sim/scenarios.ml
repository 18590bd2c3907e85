module Scenario = Agg_scenario.Scenario
module Exec = Agg_scenario.Exec

type entry = { file : string; outcome : (Exec.outcome, string) result }

let corpus_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".scn")
  |> List.sort String.compare
  |> List.map (fun f -> Filename.concat dir f)

let run_corpus ?events_cap ~(runner : Experiment.Runner.t) files =
  List.map
    (fun file ->
      let outcome =
        match Scenario.load_file file with
        | Error _ as e -> e
        | Ok s ->
            Exec.run ~jobs:runner.Experiment.Runner.settings.Experiment.jobs ?events_cap
              ?scope:runner.Experiment.Runner.scope s
      in
      { file; outcome })
    files

let all_ok entries =
  List.for_all
    (fun e -> match e.outcome with Ok o -> o.Exec.ok | Error _ -> false)
    entries

let render entries =
  let b = Buffer.create 1024 in
  List.iter
    (fun e ->
      match e.outcome with
      | Error msg -> Buffer.add_string b (Printf.sprintf "ERROR %s: %s\n" e.file msg)
      | Ok o ->
          let checks = o.Exec.checks in
          let failed = List.filter (fun (c : Exec.check) -> not c.Exec.pass) checks in
          Buffer.add_string b
            (Printf.sprintf "%-4s %-28s events=%-6d checks=%d/%d%s\n"
               (if o.Exec.ok then "ok" else "FAIL")
               o.Exec.scenario.Scenario.name o.Exec.events
               (List.length checks - List.length failed)
               (List.length checks)
               (match failed with
               | [] -> ""
               | c :: _ ->
                   Printf.sprintf " first-fail=%s%s" c.Exec.check_name
                     (if o.Exec.scenario.Scenario.expect_violation then " (expected)" else ""))))
    entries;
  Buffer.contents b

module Json = Agg_util.Json

(* A cell as a ledger object: its policy and point, then [metrics]. *)
let cell_json metrics (c : Exec.cell) =
  Json.Obj
    ((("policy", Json.Str (Scenario.policy_name c.Exec.policy))
     :: List.map (fun (field, v) -> (field, Json.Str v)) c.Exec.point)
    @ metrics c)

let check_json (c : Exec.check) =
  Json.Obj
    [
      ("name", Json.Str c.Exec.check_name);
      ("pass", Json.Bool c.Exec.pass);
      ("detail", Json.Str c.Exec.detail);
    ]

let json_of_entries entries =
  let entry e =
    match e.outcome with
    | Error msg -> Json.Obj [ ("file", Json.Str e.file); ("error", Json.Str msg) ]
    | Ok o ->
        let cell =
          cell_json (fun c ->
              [
                ( "hit_rate_pct",
                  Json.num "%.2f" (Option.value ~default:0.0 (Exec.metric c "hit_rate")) );
              ])
        in
        Json.Obj
          [
            ("file", Json.Str e.file);
            ("name", Json.Str o.Exec.scenario.Scenario.name);
            ("events", Json.int o.Exec.events);
            ("ok", Json.Bool o.Exec.ok);
            ("pass", Json.Bool o.Exec.pass);
            ("expect_violation", Json.Bool o.Exec.scenario.Scenario.expect_violation);
            ("cells", Json.Arr (List.map cell o.Exec.cells));
            ("checks", Json.Arr (List.map check_json o.Exec.checks));
          ]
  in
  Json.Obj
    [ ("scenarios", Json.Arr (List.map entry entries)); ("all_ok", Json.Bool (all_ok entries)) ]

let json_of_outcome (o : Exec.outcome) =
  Json.Obj
    [
      ("name", Json.Str o.Exec.scenario.Scenario.name);
      ("events", Json.int o.Exec.events);
      ("pass", Json.Bool o.Exec.pass);
      ( "cells",
        Json.Arr
          (List.map
             (cell_json (fun c ->
                  List.map (fun (k, v) -> (k, Json.Num (Exec.value_str v))) c.Exec.metrics))
             o.Exec.cells) );
      ("checks", Json.Arr (List.map check_json o.Exec.checks));
    ]

(* The table's metric columns: header, metric and how it prints. *)
let table_metrics =
  let decimals n v = Printf.sprintf "%.*f" n v in
  [ ("hit %", "hit_rate", decimals 2); ("mean ms", "mean_latency", decimals 3);
    ("p95 ms", "p95_latency", decimals 3) ]
  @ List.map
      (fun (header, metric) -> (header, metric, Exec.value_str))
      [ ("requests", "server_requests"); ("files sent", "files_transferred");
        ("server hits", "server_hits"); ("store", "store_fetches");
        ("invalidations", "invalidations"); ("routed", "routed_fetches"); ("failovers", "failovers");
        ("timeouts", "faults.timeouts"); ("retries", "faults.retries");
        ("degraded", "faults.degraded_fetches") ]

let table (o : Exec.outcome) =
  let axes = match o.Exec.cells with c :: _ -> List.map fst c.Exec.point | [] -> [] in
  let t =
    Agg_util.Table.create
      ~title:(Printf.sprintf "%s (%d events)" o.Exec.scenario.Scenario.name o.Exec.events)
      ~columns:(("policy" :: axes) @ List.map (fun (header, _, _) -> header) table_metrics)
  in
  List.iter
    (fun (c : Exec.cell) ->
      Agg_util.Table.add_row t
        ((Scenario.policy_name c.Exec.policy :: List.map snd c.Exec.point)
        @ List.map
            (fun (_, name, print) -> print (Option.value ~default:Float.nan (Exec.metric c name)))
            table_metrics))
    o.Exec.cells;
  t
