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

let json_of_entries entries =
  let module Json = Agg_util.Json in
  let entry e =
    match e.outcome with
    | Error msg -> Json.Obj [ ("file", Json.Str e.file); ("error", Json.Str msg) ]
    | Ok o ->
        let cell (c : Exec.cell) =
          Json.Obj
            [
              ("policy", Json.Str (Scenario.policy_name c.Exec.policy));
              ( "hit_rate_pct",
                Json.num "%.2f" (Option.value ~default:0.0 (Exec.metric c "hit_rate")) );
            ]
        in
        let check (c : Exec.check) =
          Json.Obj
            [
              ("name", Json.Str c.Exec.check_name);
              ("pass", Json.Bool c.Exec.pass);
              ("detail", Json.Str c.Exec.detail);
            ]
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
            ("checks", Json.Arr (List.map check o.Exec.checks));
          ]
  in
  Json.Obj
    [ ("scenarios", Json.Arr (List.map entry entries)); ("all_ok", Json.Bool (all_ok entries)) ]
