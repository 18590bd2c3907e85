(* aggsim — command-line front end for the aggregating-cache simulator.

   Subcommands cover trace generation and inspection, each figure
   experiment of the paper, the headline summary, the ablations, and the
   automated paper-vs-measured checks. *)

open Cmdliner

(* --- shared options ------------------------------------------------ *)

let profile_conv =
  let parse s =
    match Agg_workload.Profile.by_name s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown profile %S (expected one of: %s)" s
                (String.concat ", "
                   (List.map
                      (fun p -> p.Agg_workload.Profile.name)
                      (Agg_workload.Profile.all @ Agg_workload.Profile.extras)))))
  in
  let print ppf p = Format.pp_print_string ppf p.Agg_workload.Profile.name in
  Arg.conv (parse, print)

let profile_arg =
  Arg.(
    value
    & opt profile_conv Agg_workload.Profile.server
    & info [ "p"; "profile" ] ~docv:"PROFILE"
        ~doc:"Workload profile (workstation|users|write|server|scientific|streaming).")

let events_arg =
  Arg.(value & opt int 60_000 & info [ "n"; "events" ] ~docv:"N" ~doc:"Number of trace events.")

let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use a small event count for a fast run.")

(* Counts that make no sense at zero or below are rejected at parse time
   with a one-line error instead of silently misbehaving downstream. *)
let positive_int what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%s must be positive (got %d)" what v))
    | None -> Error (`Msg (Printf.sprintf "%s must be a positive integer (got %S)" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt (some (positive_int "--jobs")) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for sweep evaluation (results are identical for any N; 1 = \
           sequential). Defaults to the number of cores.")

let settings_term =
  let make events seed quick jobs =
    let jobs = match jobs with Some j -> j | None -> Agg_util.Pool.default_jobs () in
    if quick then { Agg_sim.Experiment.quick_settings with seed; jobs }
    else { Agg_sim.Experiment.events; seed; warmup = 0; jobs }
  in
  Term.(const make $ events_arg $ seed_arg $ quick_arg $ jobs_arg)

let exit_ok = Cmd.Exit.ok

(* --- generate ------------------------------------------------------ *)

let generate_cmd =
  let output =
    Arg.(
      value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let run profile events seed output =
    let trace = Agg_workload.Generator.generate ~seed ~events profile in
    (match output with
    | Some path ->
        Agg_trace.Codec.write_file path trace;
        Printf.printf "wrote %d events to %s\n" (Agg_trace.Trace.length trace) path
    | None -> Agg_trace.Codec.write_channel stdout trace);
    exit_ok
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic trace in aggtrace text format.")
    Term.(const run $ profile_arg $ events_arg $ seed_arg $ output)

(* --- stats ---------------------------------------------------------- *)

let input_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Read a trace file instead of generating one.")

let load_trace input profile events seed =
  match input with
  | Some path -> (
      try Agg_trace.Codec.read_file path
      with Agg_trace.Codec.Parse_error { line; message } ->
        Printf.eprintf "aggsim: %s: line %d: %s\n" path line message;
        exit Cmd.Exit.cli_error)
  | None -> Agg_workload.Generator.generate ~seed ~events profile

let stats_cmd =
  let run input profile events seed =
    let trace = load_trace input profile events seed in
    let stats = Agg_trace.Trace_stats.compute trace in
    Format.printf "%a@." Agg_trace.Trace_stats.pp stats;
    Format.printf "successor entropy (L=1): %.3f bits@." (Agg_entropy.Entropy.of_trace trace);
    exit_ok
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print summary statistics of a trace.")
    Term.(const run $ input_arg $ profile_arg $ events_arg $ seed_arg)

(* --- figures -------------------------------------------------------- *)

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR" ~doc:"Also write the figure's data series as CSV files under $(docv).")

let plot_arg =
  Arg.(value & flag & info [ "plot" ] ~doc:"Also draw terminal line plots of each panel.")

let figure_cmd name doc make =
  let run settings csv plot =
    let fig = make settings in
    Agg_sim.Experiment.print_figure fig;
    if plot then List.iter Agg_sim.Plot.print fig.Agg_sim.Experiment.panels;
    (match csv with
    | Some dir ->
        let written = Agg_sim.Export.write_figure ~dir fig in
        List.iter (Printf.printf "wrote %s\n") written
    | None -> ());
    exit_ok
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ settings_term $ csv_arg $ plot_arg)

let fig3_cmd =
  figure_cmd "fig3" "Client demand fetches vs cache capacity (paper Fig. 3)." (fun settings ->
      Agg_sim.Fig3.run (Agg_sim.Experiment.Runner.create ~settings ()))

let fig4_cmd =
  figure_cmd "fig4" "Server hit rate under intervening caches (paper Fig. 4)." (fun settings ->
      Agg_sim.Fig4.run (Agg_sim.Experiment.Runner.create ~settings ()))

let fig5_cmd =
  figure_cmd "fig5" "Successor-list replacement quality (paper Fig. 5)." (fun settings ->
      Agg_sim.Fig5.run (Agg_sim.Experiment.Runner.create ~settings ()))

let fig7_cmd =
  figure_cmd "fig7" "Successor entropy vs sequence length (paper Fig. 7)." (fun settings ->
      Agg_sim.Fig7.run (Agg_sim.Experiment.Runner.create ~settings ()))

let fig8_cmd =
  figure_cmd "fig8" "Successor entropy of filtered streams (paper Fig. 8)." (fun settings ->
      Agg_sim.Fig8.run (Agg_sim.Experiment.Runner.create ~settings ()))

(* --- weighted ------------------------------------------------------- *)

let weighted_cmd =
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Run the full capacity sweep (the weighted figure) instead of the single-capacity \
             verdict table.")
  in
  let run settings csv plot sweep =
    let runner = Agg_sim.Experiment.Runner.create ~settings () in
    if sweep then begin
      let fig = Agg_sim.Weighted.run runner in
      Agg_sim.Experiment.print_figure fig;
      if plot then List.iter Agg_sim.Plot.print fig.Agg_sim.Experiment.panels;
      match csv with
      | Some dir ->
          let written = Agg_sim.Export.write_figure ~dir fig in
          List.iter (Printf.printf "wrote %s\n") written;
          exit_ok
      | None -> exit_ok
    end
    else begin
      let capacity = Agg_sim.Weighted.default_verdict_capacity in
      let cells = Agg_sim.Weighted.sweep ~capacities:[ capacity ] runner in
      List.iter
        (fun profile ->
          let name = profile.Agg_workload.Profile.name in
          let table =
            Agg_util.Table.create
              ~title:(Printf.sprintf "%s at capacity %d (size units)" name capacity)
              ~columns:[ "policy"; "byte hit rate"; "cost saved"; "total retrieval cost" ]
          in
          List.iter
            (fun (c : Agg_sim.Weighted.cell) ->
              if c.Agg_sim.Weighted.profile = name then
                Agg_util.Table.add_row table
                  [
                    c.Agg_sim.Weighted.policy;
                    Printf.sprintf "%.4f" c.Agg_sim.Weighted.byte_hit_rate;
                    Printf.sprintf "%.4f" c.Agg_sim.Weighted.cost_saved_rate;
                    string_of_int c.Agg_sim.Weighted.total_cost;
                  ])
            cells;
          Agg_util.Table.print table)
        Agg_workload.Profile.sized;
      List.iter
        (fun (v : Agg_sim.Weighted.verdict) ->
          Printf.printf "%s: g5 total cost %d vs landlord %d — g5 %s\n"
            v.Agg_sim.Weighted.v_profile v.Agg_sim.Weighted.g5_cost
            v.Agg_sim.Weighted.landlord_cost
            (if v.Agg_sim.Weighted.g5_wins then "wins" else "loses"))
        (Agg_sim.Weighted.verdicts ~capacity runner);
      exit_ok
    end
  in
  Cmd.v
    (Cmd.info "weighted"
       ~doc:"Size/cost-aware policies (Landlord, bundle, weighted LRU, g5) on the sized profiles.")
    Term.(const run $ settings_term $ csv_arg $ plot_arg $ sweep_arg)

(* --- summary / checks / ablations ----------------------------------- *)

let summary_cmd =
  let run settings =
    Agg_util.Table.print (Agg_sim.Summary.client_table (Agg_sim.Summary.client_rows ~settings ()));
    Agg_util.Table.print (Agg_sim.Summary.server_table (Agg_sim.Summary.server_rows ~settings ()));
    exit_ok
  in
  Cmd.v
    (Cmd.info "summary" ~doc:"Headline numbers (abstract / conclusions).")
    Term.(const run $ settings_term)

let checks_cmd =
  let run settings =
    let checks = Agg_sim.Report.run_all ~settings () in
    Agg_util.Table.print (Agg_sim.Report.table checks);
    if Agg_sim.Report.all_pass checks then exit_ok else 1
  in
  Cmd.v
    (Cmd.info "checks" ~doc:"Run all paper-vs-measured qualitative checks; non-zero exit on failure.")
    Term.(const run $ settings_term)

let differential_cmd =
  let ops_arg =
    Arg.(
      value
      & opt int 10_000
      & info [ "ops" ] ~docv:"N"
          ~doc:"Generated operations per policy for the op-sequence fuzz stage.")
  in
  let run settings ops =
    let seed = settings.Agg_sim.Experiment.seed in
    let events = settings.Agg_sim.Experiment.events in
    let checks =
      Agg_oracle.Diff_engine.fuzz_all ~seed ~ops
      @ [ Agg_oracle.Diff_engine.mutant_check ~seed ~ops ]
      @ Agg_oracle.Diff_engine.lru_equivalence_checks ~seed ~events
      @ Agg_oracle.Diff_engine.successor_checks ~seed ~events
      @ Agg_oracle.Diff_engine.trace_checks ~seed ~events
    in
    (* Full-report invariance under --jobs: the sweep engine must produce
       bit-identical results whether cells run sequentially or on a domain
       pool (CLAUDE.md reproducibility contract). *)
    let jobs_check =
      let quick = { Agg_sim.Experiment.quick_settings with seed } in
      let render jobs =
        Agg_sim.Report.run_all ~settings:{ quick with Agg_sim.Experiment.jobs } ()
        |> List.map (fun (c : Agg_sim.Report.check) ->
               Printf.sprintf "%s|%s|%b" c.Agg_sim.Report.id c.Agg_sim.Report.measured
                 c.Agg_sim.Report.pass)
      in
      let sequential = render 1 and pooled = render 2 in
      if sequential = pooled then
        {
          Agg_oracle.Diff_engine.name = "inv.jobs-invariance";
          cases = List.length sequential;
          pass = true;
          detail = "";
        }
      else
        {
          Agg_oracle.Diff_engine.name = "inv.jobs-invariance";
          cases = List.length sequential;
          pass = false;
          detail = "report checks differ between --jobs 1 and --jobs 2";
        }
    in
    let checks = checks @ [ jobs_check ] in
    let table = Agg_util.Table.create ~title:"differential checks" ~columns:[ "check"; "cases"; "status"; "detail" ] in
    List.iter
      (fun (c : Agg_oracle.Diff_engine.check) ->
        Agg_util.Table.add_row table
          [
            c.Agg_oracle.Diff_engine.name;
            string_of_int c.Agg_oracle.Diff_engine.cases;
            (if c.Agg_oracle.Diff_engine.pass then "ok" else "FAIL");
            c.Agg_oracle.Diff_engine.detail;
          ])
      checks;
    Agg_util.Table.print table;
    let failed = List.filter (fun c -> not c.Agg_oracle.Diff_engine.pass) checks in
    Printf.printf "%d checks, %d failed\n" (List.length checks) (List.length failed);
    if failed = [] then exit_ok else 1
  in
  Cmd.v
    (Cmd.info "differential"
       ~doc:
         "Drive every optimized policy, successor scheme and system configuration in lockstep \
          against the lib/oracle reference models; non-zero exit on any divergence (or if the \
          seeded mutant goes undetected).")
    Term.(const run $ settings_term $ ops_arg)

let ablations_cmd =
  let run settings =
    let print_panel panel =
      Agg_util.Table.print (Agg_sim.Experiment.panel_table ~figure_id:"ablation" panel)
    in
    print_panel (Agg_sim.Ablations.member_position ~settings Agg_workload.Profile.server);
    print_panel (Agg_sim.Ablations.metadata_policy ~settings Agg_workload.Profile.server);
    print_panel (Agg_sim.Ablations.successor_capacity ~settings Agg_workload.Profile.server);
    print_panel (Agg_sim.Ablations.baselines ~settings Agg_workload.Profile.server);
    print_panel (Agg_sim.Ablations.cooperative ~settings Agg_workload.Profile.server);
    print_panel (Agg_sim.Ablations.second_level_policies ~settings Agg_workload.Profile.server);
    Agg_util.Table.print (Agg_sim.Ablations.predictor_accuracy ~settings ());
    exit_ok
  in
  Cmd.v (Cmd.info "ablations" ~doc:"Run the design-choice ablations (A1-A5).") Term.(const run $ settings_term)

let latency_cmd =
  let run settings profile =
    let trace =
      Agg_workload.Generator.generate ~seed:settings.Agg_sim.Experiment.seed
        ~events:settings.Agg_sim.Experiment.events profile
    in
    List.iter
      (fun (cost_name, cost) ->
        Printf.printf "-- %s costs --\n" cost_name;
        List.iter
          (fun (name, client_scheme, node_scheme) ->
            let config =
              { Agg_cluster.Cluster.path_config with client_scheme; node_scheme; cost }
            in
            Format.printf "%-11s %a@." name Agg_cluster.Cluster.pp_result
              (Agg_cluster.Cluster.run config trace))
          Agg_system.Scheme.deployments)
      [ ("LAN", Agg_system.Cost_model.lan); ("WAN", Agg_system.Cost_model.wan) ];
    exit_ok
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"End-to-end latency of the Fig. 2 path, per deployment.")
    Term.(const run $ settings_term $ profile_arg)

let fleet_cmd =
  let clients_arg =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc:"Number of client machines.")
  in
  let run settings profile clients =
    let trace =
      Agg_workload.Generator.generate ~seed:settings.Agg_sim.Experiment.seed
        ~events:settings.Agg_sim.Experiment.events profile
    in
    List.iter
      (fun (name, client_scheme, node_scheme) ->
        let config =
          { Agg_cluster.Cluster.default_config with clients; client_scheme; node_scheme }
        in
        Format.printf "%-12s %a@." name Agg_cluster.Cluster.pp_result
          (Agg_cluster.Cluster.run config trace))
      [
        ("plain", Agg_system.Scheme.plain_lru, Agg_system.Scheme.plain_lru);
        ( "aggregating",
          Agg_system.Scheme.Aggregating Agg_core.Config.default,
          Agg_system.Scheme.Aggregating Agg_core.Config.default );
      ];
    exit_ok
  in
  Cmd.v
    (Cmd.info "fleet" ~doc:"Many clients sharing one server, with write invalidation.")
    Term.(const run $ settings_term $ profile_arg $ clients_arg)

let faults_cmd =
  let float_opt names doc =
    Arg.(value & opt (some float) None & info names ~docv:"P" ~doc)
  in
  let loss_arg = float_opt [ "loss" ] "Message loss probability per fetch attempt (default 0.1)." in
  let outage_arg = float_opt [ "outage-rate" ] "P(an epoch opens with a server outage)." in
  let slow_arg = float_opt [ "slow-rate" ] "P(an attempt rides a degraded link)." in
  let crash_arg = float_opt [ "crash-rate" ] "Per-access client crash probability." in
  let fault_seed_arg =
    Arg.(
      value
      & opt int Agg_faults.Plan.default.Agg_faults.Plan.seed
      & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Fault-plan seed (independent of the workload seed).")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:"Print the resilience sweep (hit rate and latency vs loss rate, lru vs g5) instead.")
  in
  let run settings profile loss outage slow crash fault_seed sweep =
    if sweep then begin
      let runner = Agg_sim.Experiment.Runner.create ~settings () in
      Agg_sim.Experiment.print_figure (Agg_sim.Resilience.run ~profile runner);
      exit_ok
    end
    else begin
      let d = Agg_faults.Plan.default in
      let faults =
        {
          d with
          Agg_faults.Plan.seed = fault_seed;
          loss_rate = Option.value ~default:d.Agg_faults.Plan.loss_rate loss;
          outage_rate = Option.value ~default:d.Agg_faults.Plan.outage_rate outage;
          slow_rate = Option.value ~default:d.Agg_faults.Plan.slow_rate slow;
          crash_rate = Option.value ~default:d.Agg_faults.Plan.crash_rate crash;
        }
      in
      match Agg_faults.Plan.validate faults with
      | exception Invalid_argument msg ->
          Printf.eprintf "aggsim: %s\n" msg;
          Cmd.Exit.cli_error
      | () ->
      let trace =
        Agg_workload.Generator.generate ~seed:settings.Agg_sim.Experiment.seed
          ~events:settings.Agg_sim.Experiment.events profile
      in
      Format.printf "plan: %a@.resilience: %a@." Agg_faults.Plan.pp_config faults
        Agg_faults.Resilience.pp Agg_faults.Resilience.default;
      List.iter
        (fun (name, client_scheme) ->
          let config = { Agg_cluster.Cluster.path_config with client_scheme; faults } in
          let r = Agg_cluster.Cluster.run config trace in
          Format.printf "%-4s %a@.     faults: %a@." name Agg_cluster.Cluster.pp_result r
            Agg_faults.Counters.pp r.Agg_cluster.Cluster.faults)
        [
          ("lru", Agg_system.Scheme.plain_lru);
          ("g5", Agg_system.Scheme.aggregating ());
        ];
      exit_ok
    end
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Fault injection on the Fig. 2 path: run lru vs g5 clients under a deterministic fault \
          plan (message loss, outages, slow links, crashes), or --sweep the loss rate.")
    Term.(
      const run $ settings_term $ profile_arg $ loss_arg $ outage_arg $ slow_arg $ crash_arg
      $ fault_seed_arg $ sweep_arg)

let cluster_cmd =
  let nodes_arg =
    Arg.(
      value
      & opt (positive_int "--nodes") 5
      & info [ "nodes" ] ~docv:"N" ~doc:"Server nodes on the ring (default 5).")
  in
  let replicas_arg =
    Arg.(
      value
      & opt (positive_int "--replicas") 3
      & info [ "k"; "replicas" ] ~docv:"K"
          ~doc:"Replication-group size: each file is owned by K ring successors (default 3).")
  in
  let placement_conv =
    let parse s =
      match Agg_cluster.Cluster.placement_of_string s with
      | Some p -> Ok p
      | None -> Error (`Msg (Printf.sprintf "unknown placement %S (expected owner, group or client)" s))
    in
    Arg.conv
      (parse, fun ppf p -> Format.pp_print_string ppf (Agg_cluster.Cluster.placement_name p))
  in
  let placement_arg =
    Arg.(
      value
      & opt placement_conv Agg_cluster.Cluster.Replicated_with_group
      & info [ "placement" ] ~docv:"WHERE"
          ~doc:
            "Where successor metadata lives: $(b,owner) (primary node only), $(b,group) \
             (replicated with the group) or $(b,client) (client-side trackers).")
  in
  let node_loss_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "node-loss" ] ~docv:"P"
          ~doc:"Per-node outage probability per 1000-access epoch (default 0: healthy).")
  in
  let ring_seed_arg =
    Arg.(
      value
      & opt int Agg_cluster.Cluster.default_config.Agg_cluster.Cluster.ring_seed
      & info [ "ring-seed" ] ~docv:"SEED" ~doc:"Consistent-hash ring seed.")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Print the cluster sweep (hit rate and latency vs node loss, across scheme x K x \
             placement) instead.")
  in
  let run settings profile nodes replicas placement node_loss ring_seed sweep =
    if sweep then begin
      let runner = Agg_sim.Experiment.Runner.create ~settings () in
      Agg_sim.Experiment.print_figure (Agg_sim.Cluster.run ~profile runner);
      exit_ok
    end
    else begin
      let faults = Agg_sim.Cluster.node_kill_plan node_loss in
      match Agg_faults.Plan.validate faults with
      | exception Invalid_argument msg ->
          Printf.eprintf "aggsim: %s\n" msg;
          Cmd.Exit.cli_error
      | () ->
          let trace =
            Agg_workload.Generator.generate ~seed:settings.Agg_sim.Experiment.seed
              ~events:settings.Agg_sim.Experiment.events profile
          in
          Printf.printf "cluster: %d nodes, k=%d, metadata=%s, node-loss %g\n" nodes replicas
            (Agg_cluster.Cluster.placement_name placement)
            node_loss;
          List.iter
            (fun (name, scheme) ->
              let config =
                {
                  Agg_cluster.Cluster.default_config with
                  Agg_cluster.Cluster.nodes;
                  replicas;
                  ring_seed;
                  metadata = placement;
                  client_scheme = scheme;
                  node_scheme = scheme;
                  faults;
                }
              in
              let r = Agg_cluster.Cluster.run config trace in
              Format.printf "%-4s %a@.     faults: %a@." name Agg_cluster.Cluster.pp_result r
                Agg_faults.Counters.pp r.Agg_cluster.Cluster.faults)
            [
              ("lru", Agg_system.Scheme.plain_lru);
              ("g5", Agg_system.Scheme.aggregating ());
            ];
          exit_ok
    end
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Sharded multi-node cluster: route the fleet workload through a consistent-hash ring of \
          replication groups, optionally killing nodes ($(b,--node-loss)), or $(b,--sweep) node \
          count x K x metadata placement.")
    Term.(
      const run $ settings_term $ profile_arg $ nodes_arg $ replicas_arg $ placement_arg
      $ node_loss_arg $ ring_seed_arg $ sweep_arg)

(* --- entropy / groups ----------------------------------------------- *)

let entropy_cmd =
  let length_arg =
    Arg.(value & opt int 1 & info [ "l"; "length" ] ~docv:"L" ~doc:"Successor sequence length.")
  in
  let filter_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "filter" ] ~docv:"CAP" ~doc:"Filter through an LRU cache of this capacity first.")
  in
  let run input profile events seed length filter =
    let trace = load_trace input profile events seed in
    let trace =
      match filter with
      | Some capacity -> Agg_trace.Filter.miss_stream ~capacity trace
      | None -> trace
    in
    Printf.printf "%.4f\n" (Agg_entropy.Entropy.of_trace ~length trace);
    exit_ok
  in
  Cmd.v
    (Cmd.info "entropy" ~doc:"Successor entropy of a trace (optionally filtered).")
    Term.(const run $ input_arg $ profile_arg $ events_arg $ seed_arg $ length_arg $ filter_arg)

let groups_cmd =
  let size_arg = Arg.(value & opt int 5 & info [ "g"; "size" ] ~docv:"G" ~doc:"Group size.") in
  let top_arg =
    Arg.(
      value & opt (positive_int "--top") 10
      & info [ "top" ] ~docv:"K" ~doc:"Show the K largest-anchor groups.")
  in
  let run input profile events seed size top =
    let trace = load_trace input profile events seed in
    let graph = Agg_successor.Graph.of_trace trace in
    let cover = Agg_successor.Grouping.cover graph ~size in
    let stats = Agg_successor.Grouping.cover_stats cover in
    Printf.printf "groups=%d covered=%d mean_size=%.2f overlapping=%d max_memberships=%d\n"
      stats.groups stats.covered_nodes stats.mean_group_size stats.overlapping_nodes
      stats.max_memberships;
    List.iteri
      (fun i g -> if i < top then Format.printf "%a@." Agg_successor.Grouping.pp_group g)
      cover;
    exit_ok
  in
  Cmd.v
    (Cmd.info "groups" ~doc:"Build and show the covering group set of a trace.")
    Term.(const run $ input_arg $ profile_arg $ events_arg $ seed_arg $ size_arg $ top_arg)

let convert_cmd =
  let format_conv =
    let parse s =
      match Agg_trace.Import.format_of_string s with
      | Some f -> Ok f
      | None -> Error (`Msg (Printf.sprintf "unknown format %S (expected paths|strace)" s))
    in
    let print ppf f =
      Format.pp_print_string ppf
        (match f with Agg_trace.Import.Paths -> "paths" | Agg_trace.Import.Strace -> "strace")
    in
    Arg.conv (parse, print)
  in
  let format_arg =
    Arg.(
      value
      & opt format_conv Agg_trace.Import.Paths
      & info [ "f"; "format" ] ~docv:"FORMAT" ~doc:"Input format: paths (one per line) or strace.")
  in
  let input_pos = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  let output =
    Arg.(
      value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let names =
    Arg.(
      value
      & opt (some string) None
      & info [ "names" ] ~docv:"FILE" ~doc:"Also write the id-to-path table here.")
  in
  let run format input output names =
    let trace, namespace = Agg_trace.Import.of_file format input in
    (match output with
    | Some path ->
        Agg_trace.Codec.write_file path trace;
        Printf.printf "wrote %d events over %d files to %s\n" (Agg_trace.Trace.length trace)
          (Agg_trace.File_id.Namespace.count namespace)
          path
    | None -> Agg_trace.Codec.write_channel stdout trace);
    (match names with
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            Agg_trace.File_id.Namespace.iter namespace (fun name id ->
                Printf.fprintf oc "%d %s\n" id name))
    | None -> ());
    exit_ok
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"Convert an external trace (paths or strace output) to aggtrace format.")
    Term.(const run $ format_arg $ input_pos $ output $ names)

let profile_report_cmd =
  let top_arg =
    Arg.(
      value & opt (positive_int "--top") 10
      & info [ "top" ] ~docv:"K" ~doc:"Files to show at each extreme.")
  in
  let run input profile events seed top =
    let trace = load_trace input profile events seed in
    let files = Agg_trace.Trace.files trace in
    let rows = Agg_entropy.Entropy.per_file files in
    let by_entropy = List.sort (fun (_, _, a) (_, _, b) -> compare a b) rows in
    let table ~title rows =
      let t =
        Agg_util.Table.create ~title ~columns:[ "file"; "occurrences"; "successor entropy (bits)" ]
      in
      List.iter
        (fun (file, occ, h) ->
          Agg_util.Table.add_row t
            [ Printf.sprintf "f%d" file; string_of_int occ; Printf.sprintf "%.3f" h ])
        rows;
      Agg_util.Table.print t
    in
    let firsts = List.filteri (fun i _ -> i < top) by_entropy in
    let lasts = List.filteri (fun i _ -> i < top) (List.rev by_entropy) in
    Printf.printf "%d repeated files; overall successor entropy %.3f bits\n" (List.length rows)
      (Agg_entropy.Entropy.of_files files);
    table ~title:"most predictable files" firsts;
    table ~title:"least predictable files" lasts;
    exit_ok
  in
  Cmd.v
    (Cmd.info "predictability" ~doc:"Per-file predictability report (the visualization-tool view).")
    Term.(const run $ input_arg $ profile_arg $ events_arg $ seed_arg $ top_arg)

(* --- trace (event dump) ---------------------------------------------- *)

(* Satisfies the CLI contract that a bad output path is a clean error
   message and exit code, never an escaping [Sys_error]. *)
let open_out_result path =
  match open_out path with oc -> Ok oc | exception Sys_error msg -> Error msg

(* Sampling rates live in (0, 1]: rate 0 would keep nothing and rates
   above 1 are meaningless, so both are argument errors, not runtime
   surprises. *)
let sample_rate_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some r when r > 0.0 && r <= 1.0 -> Ok r
    | _ -> Error (`Msg (Printf.sprintf "invalid %s %S (expected a number in (0, 1])" what s))
  in
  Arg.conv (parse, fun ppf r -> Format.fprintf ppf "%g" r)

let trace_cmd =
  let out_arg =
    Arg.(
      value
      & opt string "events.jsonl"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"JSONL output path.")
  in
  let capacity_arg =
    Arg.(value & opt int 300 & info [ "capacity" ] ~docv:"N" ~doc:"Client cache capacity (files).")
  in
  let group_arg =
    Arg.(value & opt int 5 & info [ "g"; "group-size" ] ~docv:"G" ~doc:"Retrieval group size.")
  in
  let sample_arg =
    Arg.(
      value
      & opt (sample_rate_conv "sample rate") 1.0
      & info [ "sample" ] ~docv:"RATE"
          ~doc:
            "Keep each event with probability $(docv) in (0, 1], decided deterministically from \
             the run seed and the event's offered index (default 1: keep every event).")
  in
  let run input profile events seed out capacity group_size sample =
    let trace = load_trace input profile events seed in
    match open_out_result out with
    | Error msg ->
        Printf.eprintf "aggsim: cannot write %s: %s\n" out msg;
        1
    | Ok oc ->
        let config = Agg_core.Config.with_group_size group_size Agg_core.Config.default in
        let sink =
          if sample < 1.0 then Agg_obs.Sink.sampled ~seed ~rate:sample (Agg_obs.Sink.jsonl oc)
          else Agg_obs.Sink.jsonl oc
        in
        let cache = Agg_core.Client_cache.create ~config ~obs:sink ~capacity () in
        let m = Agg_core.Client_cache.run cache trace in
        let written = Agg_obs.Sink.emitted sink in
        Agg_obs.Sink.flush sink;
        close_out oc;
        (* Validate what actually hit the disk: parse every line back,
           check the seq numbering, and reconcile the replayed digest
           against the run's aggregate metrics. *)
        let digest = Agg_obs.Digest.create () in
        let parse_errors = ref 0 in
        let lines = ref 0 in
        let ic = open_in out in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            try
              while true do
                let line = input_line ic in
                (match Agg_obs.Event.of_json line with
                | Ok (seq, event) ->
                    if seq <> !lines then begin
                      Printf.eprintf "aggsim: %s:%d: seq %d, expected %d\n" out (!lines + 1) seq
                        !lines;
                      incr parse_errors
                    end;
                    Agg_obs.Digest.observe digest event
                | Error e ->
                    Printf.eprintf "aggsim: %s:%d: %s\n" out (!lines + 1) e;
                    incr parse_errors);
                incr lines
              done
            with End_of_file -> ());
        Printf.printf "wrote %d events to %s\n" written out;
        Format.printf "%a@." Agg_obs.Digest.pp digest;
        if !parse_errors > 0 || !lines <> written then begin
          Printf.eprintf "aggsim: JSONL validation failed: %d parse errors, %d/%d lines readable\n"
            !parse_errors !lines written;
          1
        end
        else if sample < 1.0 then begin
          (* A sampled stream's digest is a subset of the run's counters
             by construction, so exact reconciliation does not apply. *)
          Printf.printf "sampled dump (rate %g): kept %d of %d offered events; reconciliation skipped\n"
            sample written (Agg_obs.Sink.offered sink);
          exit_ok
        end
        else begin
          match Agg_core.Metrics.reconcile_client digest m with
          | Ok () ->
              Printf.printf "reconciliation OK: %d accesses = %d hits + %d demand fetches\n"
                m.Agg_core.Metrics.accesses m.Agg_core.Metrics.hits
                m.Agg_core.Metrics.demand_fetches;
              exit_ok
          | Error msg ->
              Printf.eprintf "aggsim: reconciliation FAILED: %s\n" msg;
              1
        end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay one client-cache run with the JSONL event sink: dump every decision event (or a \
          deterministic $(b,--sample) of them), then re-parse the file; full dumps also reconcile \
          the event counts against the run's metrics (non-zero exit on any mismatch).")
    Term.(
      const run $ input_arg $ profile_arg $ events_arg $ seed_arg $ out_arg $ capacity_arg
      $ group_arg $ sample_arg)

(* --- profile (sweep timing + histograms) ------------------------------ *)

let profile_cmd =
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Also write the per-cell spans as Chrome trace_event JSON to $(docv) (open in \
             chrome://tracing or Perfetto).")
  in
  let top_arg =
    Arg.(
      value
      & opt (positive_int "--top") 10
      & info [ "top" ] ~docv:"N" ~doc:"Show the $(docv) slowest sweep cells (default 10).")
  in
  let pp_hist name h =
    let q q' = match Agg_obs.Histogram.quantile h q' with Some v -> string_of_int v | None -> "-" in
    Printf.printf "  %-22s count=%-7d mean=%-8.1f p50=%-6s p90=%-6s p99=%-6s max=%s\n" name
      (Agg_obs.Histogram.count h) (Agg_obs.Histogram.mean h) (q 0.5) (q 0.9) (q 0.99)
      (match Agg_obs.Histogram.max_value h with Some v -> string_of_int v | None -> "-")
  in
  let run settings profile trace_out top =
    let recorder = Agg_obs.Span.recorder () in
    let runner =
      Agg_sim.Experiment.Runner.create
        ~scope:(Agg_obs.Scope.create ~profiler:recorder ())
        ~settings ()
    in
    ignore (Agg_sim.Fig3.run runner);
    ignore (Agg_sim.Fig4.run runner);
    ignore (Agg_sim.Fig5.run runner);
    let spans = Agg_obs.Span.spans recorder in
    let figure_of (s : Agg_obs.Span.span) =
      match String.index_opt s.Agg_obs.Span.name '/' with
      | Some i -> String.sub s.Agg_obs.Span.name 0 i
      | None -> s.Agg_obs.Span.name
    in
    let totals = Hashtbl.create 8 in
    List.iter
      (fun s ->
        let key = figure_of s in
        let sofar = Option.value ~default:(0.0, 0) (Hashtbl.find_opt totals key) in
        Hashtbl.replace totals key (fst sofar +. Agg_obs.Span.seconds_of s, snd sofar + 1))
      spans;
    let table =
      Agg_util.Table.create ~title:"sweep wall-clock by figure"
        ~columns:[ "figure"; "cells"; "cpu seconds" ]
    in
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
    |> List.sort compare
    |> List.iter (fun (k, (seconds, cells)) ->
           Agg_util.Table.add_row table [ k; string_of_int cells; Printf.sprintf "%.3f" seconds ]);
    Agg_util.Table.print table;
    let slowest =
      List.sort
        (fun a b -> compare (Agg_obs.Span.seconds_of b) (Agg_obs.Span.seconds_of a))
        spans
    in
    (* Every fig3/4/5 cell replays the full trace, so events/s per cell
       is the trace length over the cell's wall-clock. *)
    let cell_events = float_of_int settings.Agg_sim.Experiment.events in
    let table =
      Agg_util.Table.create
        ~title:(Printf.sprintf "slowest %d sweep cells" top)
        ~columns:[ "cell"; "ms"; "events/s"; "domain" ]
    in
    List.iteri
      (fun i (s : Agg_obs.Span.span) ->
        if i < top then begin
          let seconds = Agg_obs.Span.seconds_of s in
          Agg_util.Table.add_row table
            [
              s.Agg_obs.Span.name;
              Printf.sprintf "%.2f" (1000.0 *. seconds);
              (if seconds > 0.0 then Printf.sprintf "%.0fk" (cell_events /. seconds /. 1e3)
               else "-");
              string_of_int s.Agg_obs.Span.tid;
            ]
        end)
      slowest;
    Agg_util.Table.print table;
    (* One fully instrumented run for the headline histograms. *)
    let sink = Agg_obs.Sink.memory () in
    let cache = Agg_core.Client_cache.create ~obs:sink ~capacity:300 () in
    let m = Agg_core.Client_cache.run cache (Agg_sim.Trace_store.get ~settings profile) in
    let digest = Agg_obs.Digest.of_events (Agg_obs.Sink.events sink) in
    Printf.printf "\ninstrumented run: %s workload, g5, capacity 300\n"
      profile.Agg_workload.Profile.name;
    Format.printf "  %a@." Agg_obs.Digest.pp digest;
    pp_hist "speculative lifetime" (Agg_obs.Digest.lifetime digest);
    pp_hist "hit depth" (Agg_obs.Digest.hit_depth digest);
    pp_hist "group size" (Agg_obs.Digest.group_size digest);
    let reconcile_exit =
      match Agg_core.Metrics.reconcile_client digest m with
      | Ok () -> exit_ok
      | Error msg ->
          Printf.eprintf "aggsim: reconciliation FAILED: %s\n" msg;
          1
    in
    match trace_out with
    | None -> reconcile_exit
    | Some path -> (
        match open_out_result path with
        | Error msg ->
            Printf.eprintf "aggsim: cannot write %s: %s\n" path msg;
            1
        | Ok oc ->
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> Agg_obs.Span.write_chrome oc recorder);
            Printf.printf "wrote %d spans to %s (Chrome trace_event format)\n"
              (Agg_obs.Span.count recorder) path;
            reconcile_exit)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile the fig3/fig4/fig5 sweeps: wall-clock per sweep cell (optionally exported as a \
          Chrome trace via $(b,--trace-out)) plus the event histograms — speculative-resident \
          lifetime, stack distance at hits, group size — of one instrumented run.")
    Term.(const run $ settings_term $ profile_arg $ trace_out_arg $ top_arg)

(* --- scenario ------------------------------------------------------- *)

let scenario_cmd =
  let module Scenario = Agg_scenario.Scenario in
  let module Exec = Agg_scenario.Exec in
  let module Fuzz = Agg_scenario.Fuzz in
  let file_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "f"; "file" ] ~docv:"FILE" ~doc:"A scenario file; repeatable.")
  in
  let dir_arg =
    Arg.(
      value
      & opt string "scenarios"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Corpus directory scanned for *.scn files when no $(b,--file) is given.")
  in
  let events_cap_arg =
    Arg.(
      value
      & opt (some (positive_int "--events-cap")) None
      & info [ "events-cap" ] ~docv:"N"
          ~doc:"Truncate every workload to at most N events (fast CI runs).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the results as a JSON document.")
  in
  let jobs_of jobs = match jobs with Some j -> j | None -> Agg_util.Pool.default_jobs () in
  (* --file list, or the corpus directory when none was given *)
  let selected files dir =
    match files with [] -> Agg_sim.Scenarios.corpus_files dir | files -> files
  in
  let validate_cmd =
    let run files dir =
      match selected files dir with
      | exception Sys_error msg ->
          Printf.eprintf "aggsim: %s\n" msg;
          Cmd.Exit.cli_error
      | files ->
          let bad = ref 0 in
          List.iter
            (fun file ->
              match Scenario.load_file file with
              | Error msg ->
                  incr bad;
                  Printf.printf "ERROR %s\n" msg
              | Ok s -> (
                  match Scenario.validate s with
                  | exception Invalid_argument msg ->
                      incr bad;
                      Printf.printf "ERROR %s: %s\n" file msg
                  | () -> Printf.printf "ok   %s (%s)\n" file s.Scenario.name))
            files;
          if !bad = 0 then exit_ok else Cmd.Exit.some_error
    in
    Cmd.v
      (Cmd.info "validate" ~doc:"Parse and validate scenario files without running them.")
      Term.(const run $ file_arg $ dir_arg)
  in
  let run_cmd =
    let run files dir jobs events_cap json =
      let jobs = jobs_of jobs in
      match selected files dir with
      | exception Sys_error msg ->
          Printf.eprintf "aggsim: %s\n" msg;
          Cmd.Exit.cli_error
      | files ->
          let entries =
            List.map
              (fun file ->
                let outcome =
                  match Scenario.load_file file with
                  | Error _ as e -> e
                  | Ok s -> Exec.run ~jobs ?events_cap s
                in
                { Agg_sim.Scenarios.file; outcome })
              files
          in
          List.iter
            (fun (e : Agg_sim.Scenarios.entry) ->
              match e.Agg_sim.Scenarios.outcome with
              | Error msg -> Printf.printf "ERROR %s: %s\n" e.Agg_sim.Scenarios.file msg
              | Ok o -> print_string (Exec.render_outcome o))
            entries;
          print_newline ();
          print_string (Agg_sim.Scenarios.render entries);
          (match json with
          | Some path ->
              Out_channel.with_open_text path (fun oc ->
                  output_string oc (Agg_sim.Scenarios.json_of_entries entries))
          | None -> ());
          if Agg_sim.Scenarios.all_ok entries then exit_ok else Cmd.Exit.some_error
    in
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Execute scenarios and check every invariant and expectation. Exits non-zero unless \
            every scenario meets its verdict (known-bad scenarios must fail).")
      Term.(const run $ file_arg $ dir_arg $ jobs_arg $ events_cap_arg $ json_arg)
  in
  let fuzz_cmd =
    let seed_arg =
      Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Fuzzing PRNG seed.")
    in
    let rounds_arg =
      Arg.(
        value
        & opt (positive_int "--rounds") 40
        & info [ "rounds" ] ~docv:"N" ~doc:"Perturbation rounds (default 40).")
    in
    let run files dir seed rounds jobs events_cap =
      let jobs = jobs_of jobs in
      match selected files dir with
      | exception Sys_error msg ->
          Printf.eprintf "aggsim: %s\n" msg;
          Cmd.Exit.cli_error
      | [] ->
          Printf.eprintf "aggsim: no scenario files to fuzz\n";
          Cmd.Exit.cli_error
      | file :: _ -> (
          match Scenario.load_file file with
          | Error msg ->
              Printf.eprintf "aggsim: %s\n" msg;
              Cmd.Exit.cli_error
          | Ok base -> (
              let report = Fuzz.run ~jobs ?events_cap ~seed ~rounds base in
              Printf.printf "fuzz %s: seed=%d rounds=%d tested=%d\n" file seed rounds
                report.Fuzz.tested;
              match report.Fuzz.failure with
              | None ->
                  Printf.printf "no violation found\n";
                  exit_ok
              | Some f ->
                  let size s = String.length (Scenario.to_string s) in
                  Printf.printf "violation in %s (%d bytes), shrunk to %d bytes:\n"
                    f.Fuzz.original.Scenario.name (size f.Fuzz.original) (size f.Fuzz.shrunk);
                  print_string (Scenario.to_string f.Fuzz.shrunk);
                  exit_ok))
    in
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:
           "Perturb a scenario with seeded randomness until an invariant breaks, then greedily \
            shrink to a minimal failing scenario (deterministic for a fixed $(b,--seed)).")
      Term.(const run $ file_arg $ dir_arg $ seed_arg $ rounds_arg $ jobs_arg $ events_cap_arg)
  in
  Cmd.group
    (Cmd.info "scenario"
       ~doc:
         "Declarative experiments: validate, run or fuzz *.scn scenario files (workload, \
          topology, faults, policy matrix, invariants).")
    [ run_cmd; fuzz_cmd; validate_cmd ]

(* --- telemetry ------------------------------------------------------- *)

let telemetry_cmd =
  let nodes_arg =
    Arg.(
      value
      & opt (positive_int "--nodes") 5
      & info [ "nodes" ] ~docv:"N" ~doc:"Server nodes on the ring (default 5).")
  in
  let replicas_arg =
    Arg.(
      value
      & opt (positive_int "--replicas") 3
      & info [ "k"; "replicas" ] ~docv:"K" ~doc:"Replication-group size (default 3).")
  in
  let node_loss_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "node-loss" ] ~docv:"P"
          ~doc:"Per-node outage probability per 1000-access epoch (default 0: healthy).")
  in
  let window_arg =
    Arg.(
      value
      & opt (positive_int "--window") 1000
      & info [ "window" ] ~docv:"W" ~doc:"Accesses per telemetry window (default 1000).")
  in
  let sample_arg =
    Arg.(
      value
      & opt (sample_rate_conv "sample rate") 0.01
      & info [ "sample" ] ~docv:"RATE"
          ~doc:
            "Request-trace head-sampling rate in (0, 1]: whether request i is traced is a pure \
             function of (seed, i) (default 0.01).")
  in
  let format_arg =
    Arg.(
      value
      & opt (Arg.enum [ ("prom", `Prom); ("json", `Json) ]) `Prom
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Series output format: $(b,prom) (Prometheus text exposition) or $(b,json).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the series there instead of stdout.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Also write the sampled request span trees as Chrome trace_event JSON to $(docv) \
             (open in chrome://tracing or Perfetto).")
  in
  let run settings profile nodes replicas node_loss window sample format out trace_out =
    let faults = Agg_sim.Cluster.node_kill_plan node_loss in
    match Agg_faults.Plan.validate faults with
    | exception Invalid_argument msg ->
        Printf.eprintf "aggsim: %s\n" msg;
        Cmd.Exit.cli_error
    | () -> (
        let trace =
          Agg_workload.Generator.generate ~seed:settings.Agg_sim.Experiment.seed
            ~events:settings.Agg_sim.Experiment.events profile
        in
        (* Pass 1: the cluster, with the windowed series and the request
           tracer threaded through the config. *)
        let series = Agg_obs.Series.create ~window in
        let ctx = Agg_obs.Trace_ctx.create ~sample ~seed:settings.Agg_sim.Experiment.seed () in
        let config =
          {
            Agg_cluster.Cluster.default_config with
            Agg_cluster.Cluster.nodes;
            replicas;
            client_scheme = Agg_system.Scheme.aggregating ();
            node_scheme = Agg_system.Scheme.aggregating ();
            faults;
            scope = Some (Agg_obs.Scope.create ~series ~trace_ctx:ctx ());
          }
        in
        let r = Agg_cluster.Cluster.run config trace in
        (* Pass 2: a single-client run with the memory sink, replayed into
           a second series — the speculative-eviction churn channel, and a
           digest to reconcile it against. *)
        let sink = Agg_obs.Sink.memory () in
        let cache = Agg_core.Client_cache.create ~obs:sink ~capacity:300 () in
        ignore (Agg_core.Client_cache.run cache trace);
        let events = Agg_obs.Sink.events sink in
        let churn = Agg_obs.Series.of_events ~window events in
        let digest = Agg_obs.Digest.of_events events in
        (* Self-checks: every window sum must reconcile exactly with the
           run's own aggregate counters — the telemetry layer must never
           invent or lose a count. *)
        let failures = ref [] in
        let check name got want =
          if got <> want then
            failures := Printf.sprintf "%s: series %d <> run %d" name got want :: !failures
        in
        check "cluster accesses" (Agg_obs.Series.total_accesses series)
          r.Agg_cluster.Cluster.accesses;
        check "cluster client hits" (Agg_obs.Series.total_hits series)
          r.Agg_cluster.Cluster.client_hits;
        check "cluster degraded fetches" (Agg_obs.Series.total_degraded series)
          (r.Agg_cluster.Cluster.accesses - r.Agg_cluster.Cluster.client_hits
         - r.Agg_cluster.Cluster.routed_fetches);
        check "cluster latency samples"
          (Agg_obs.Histogram.count (Agg_obs.Series.total_latency series))
          r.Agg_cluster.Cluster.accesses;
        let loads = Hashtbl.create 16 in
        for w = 0 to Agg_obs.Series.windows series - 1 do
          List.iter
            (fun (n, c) ->
              Hashtbl.replace loads n (c + Option.value ~default:0 (Hashtbl.find_opt loads n)))
            (Agg_obs.Series.node_loads series w)
        done;
        List.iter
          (fun (n, c) ->
            check (Printf.sprintf "node %d load" n)
              (Option.value ~default:0 (Hashtbl.find_opt loads n))
              c;
            Hashtbl.remove loads n)
          r.Agg_cluster.Cluster.per_node_requests;
        Hashtbl.iter (fun n c -> check (Printf.sprintf "node %d load" n) c 0) loads;
        check "client accesses" (Agg_obs.Series.total_accesses churn)
          (Agg_obs.Digest.accesses digest);
        check "client hits" (Agg_obs.Series.total_hits churn) (Agg_obs.Digest.demand_hits digest);
        check "speculative evictions"
          (Agg_obs.Series.total_speculative_evictions churn)
          (Agg_obs.Digest.evicted_speculative digest);
        (* The series document: the cluster channel plus the client churn
           channel, both deterministic bytes. *)
        let body =
          match format with
          | `Prom ->
              Agg_obs.Series.to_prometheus ~prefix:"agg_cluster" series
              ^ Agg_obs.Series.to_prometheus ~prefix:"agg_client" churn
          | `Json ->
              Printf.sprintf "{\"cluster\": %s, \"client\": %s}\n"
                (Agg_obs.Series.to_json series)
                (Agg_obs.Series.to_json churn)
        in
        let write_ok =
          match out with
          | None ->
              print_string body;
              true
          | Some path -> (
              match open_out_result path with
              | Error msg ->
                  Printf.eprintf "aggsim: cannot write %s: %s\n" path msg;
                  false
              | Ok oc ->
                  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body);
                  Printf.printf "wrote %d windows to %s\n" (Agg_obs.Series.windows series) path;
                  true)
        in
        let trace_ok =
          match trace_out with
          | None -> true
          | Some path -> (
              match open_out_result path with
              | Error msg ->
                  Printf.eprintf "aggsim: cannot write %s: %s\n" path msg;
                  false
              | Ok oc ->
                  Fun.protect
                    ~finally:(fun () -> close_out oc)
                    (fun () -> output_string oc (Agg_obs.Trace_ctx.chrome_json ctx));
                  Printf.printf "wrote %d spans (%d sampled requests) to %s\n"
                    (List.length (Agg_obs.Trace_ctx.spans ctx))
                    (Agg_obs.Trace_ctx.sampled_requests ctx)
                    path;
                  true)
        in
        Printf.printf "telemetry: %d nodes, k=%d, node-loss %g, window %d, sample %g\n" nodes
          replicas node_loss window sample;
        Printf.printf "traced %d of %d requests; critical-path attribution (sampled, ms):\n"
          (Agg_obs.Trace_ctx.sampled_requests ctx)
          r.Agg_cluster.Cluster.accesses;
        List.iter
          (fun (cat, ms) -> Printf.printf "  %-10s %10.2f\n" cat ms)
          (Agg_obs.Trace_ctx.attribution ctx);
        match (!failures, write_ok && trace_ok) with
        | [], true ->
            Printf.printf "telemetry self-checks OK: window sums reconcile with run counters\n";
            exit_ok
        | fails, _ ->
            List.iter (fun f -> Printf.eprintf "aggsim: telemetry reconciliation FAILED: %s\n" f)
              (List.rev fails);
            1)
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
         "Run the cluster with windowed time-series telemetry and request-lifecycle tracing: \
          export per-window hit rate, latency quantiles, degraded-fetch rate, per-node load and \
          speculative-eviction churn as Prometheus text or JSON, optionally dump sampled request \
          span trees as a Chrome trace, and reconcile every window sum against the run's own \
          counters (non-zero exit on any mismatch).")
    Term.(
      const run $ settings_term $ profile_arg $ nodes_arg $ replicas_arg $ node_loss_arg
      $ window_arg $ sample_arg $ format_arg $ out_arg $ trace_out_arg)

(* --- main ------------------------------------------------------------ *)

let () =
  let doc = "trace-driven simulator for group-based distributed file caching" in
  let info = Cmd.info "aggsim" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            generate_cmd;
            stats_cmd;
            fig3_cmd;
            fig4_cmd;
            fig5_cmd;
            fig7_cmd;
            fig8_cmd;
            weighted_cmd;
            summary_cmd;
            checks_cmd;
            differential_cmd;
            ablations_cmd;
            latency_cmd;
            fleet_cmd;
            faults_cmd;
            cluster_cmd;
            scenario_cmd;
            entropy_cmd;
            groups_cmd;
            convert_cmd;
            profile_report_cmd;
            trace_cmd;
            profile_cmd;
            telemetry_cmd;
          ]))
