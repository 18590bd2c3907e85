type weighting =
  | Unit_weights
  | Pareto_weights of {
      wseed : int;
      alpha : float;
      max_size : int;
      cost_base : int;
      cost_per_size : int;
    }

type t = {
  name : string;
  clients : int;
  tasks : int;
  task_len_min : int;
  task_len_max : int;
  shared_pool : int;
  shared_fraction : float;
  task_zipf_s : float;
  p_skip : float;
  p_substitute : float;
  p_insert : float;
  background_files : int;
  background_zipf_s : float;
  p_background : float;
  p_write : float;
  burst_mean : float;
  phase_period : int;
  p_task_mutate : float;
  p_loop : float;
  loop_mean_reps : float;
  weighting : weighting;
}

(* mozart: a personal workstation. One user, medium-length interactive
   tasks, a fair amount of browsing noise. *)
let workstation =
  {
    name = "workstation";
    clients = 1;
    tasks = 220;
    task_len_min = 8;
    task_len_max = 26;
    shared_pool = 60;
    shared_fraction = 0.22;
    task_zipf_s = 0.9;
    p_skip = 0.05;
    p_substitute = 0.02;
    p_insert = 0.025;
    background_files = 9000;
    background_zipf_s = 0.7;
    p_background = 0.05;
    p_write = 0.15;
    burst_mean = 40.0;
    phase_period = 3000;
    p_task_mutate = 0.40;
    p_loop = 0.06;
    loop_mean_reps = 6.0;
    weighting = Unit_weights;
  }

(* ives: the system with the most users. Many fine-grained interleaved
   streams scramble the global succession order. *)
let users =
  {
    name = "users";
    clients = 18;
    tasks = 320;
    task_len_min = 8;
    task_len_max = 26;
    shared_pool = 80;
    shared_fraction = 0.25;
    task_zipf_s = 0.85;
    p_skip = 0.04;
    p_substitute = 0.02;
    p_insert = 0.02;
    background_files = 10000;
    background_zipf_s = 0.7;
    p_background = 0.03;
    p_write = 0.12;
    burst_mean = 12.0;
    phase_period = 2500;
    p_task_mutate = 0.15;
    p_loop = 0.09;
    loop_mean_reps = 10.0;
    weighting = Unit_weights;
  }

(* dvorak: the largest proportion of write activity, with short runs and a
   big cold-file population — the workload where grouping gains least. *)
let write =
  {
    name = "write";
    clients = 2;
    tasks = 170;
    task_len_min = 5;
    task_len_max = 14;
    shared_pool = 50;
    shared_fraction = 0.18;
    task_zipf_s = 0.8;
    p_skip = 0.10;
    p_substitute = 0.10;
    p_insert = 0.14;
    background_files = 22000;
    background_zipf_s = 0.55;
    p_background = 0.22;
    p_write = 0.45;
    burst_mean = 25.0;
    phase_period = 2000;
    p_task_mutate = 0.20;
    p_loop = 0.04;
    loop_mean_reps = 4.0;
    weighting = Unit_weights;
  }

(* barber: a server with application-driven access patterns — long,
   almost deterministic runs, hardly any noise; the most predictable. *)
let server =
  {
    name = "server";
    clients = 1;
    tasks = 130;
    task_len_min = 20;
    task_len_max = 42;
    shared_pool = 30;
    shared_fraction = 0.07;
    task_zipf_s = 1.1;
    p_skip = 0.008;
    p_substitute = 0.004;
    p_insert = 0.01;
    background_files = 6000;
    background_zipf_s = 0.8;
    p_background = 0.02;
    p_write = 0.08;
    burst_mean = 200.0;
    phase_period = 5000;
    p_task_mutate = 0.20;
    p_loop = 0.015;
    loop_mean_reps = 5.0;
    weighting = Unit_weights;
  }

(* Beyond the paper: a scientific data-lifecycle cache in the XRootD
   style (Bellavita et al.) — long analysis campaigns re-reading large
   shared datasets, a huge cold population touched once, few writes. *)
let scientific =
  {
    name = "scientific";
    clients = 6;
    tasks = 90;
    task_len_min = 30;
    task_len_max = 80;
    shared_pool = 120;
    shared_fraction = 0.12;
    task_zipf_s = 1.0;
    p_skip = 0.02;
    p_substitute = 0.015;
    p_insert = 0.02;
    background_files = 30000;
    background_zipf_s = 0.35;
    p_background = 0.30;
    p_write = 0.05;
    burst_mean = 120.0;
    phase_period = 4000;
    p_task_mutate = 0.10;
    p_loop = 0.02;
    loop_mean_reps = 4.0;
    weighting = Unit_weights;
  }

(* Streaming/video delivery (Friedlander & Aggarwal): long, highly
   sequential per-title playback runs, strong popularity skew across a
   modest catalogue, almost no writes — the most groupable workload. *)
let streaming =
  {
    name = "streaming";
    clients = 12;
    tasks = 60;
    task_len_min = 40;
    task_len_max = 120;
    shared_pool = 40;
    shared_fraction = 0.05;
    task_zipf_s = 1.4;
    p_skip = 0.01;
    p_substitute = 0.005;
    p_insert = 0.008;
    background_files = 8000;
    background_zipf_s = 0.6;
    p_background = 0.03;
    p_write = 0.005;
    burst_mean = 90.0;
    phase_period = 6000;
    p_task_mutate = 0.02;
    p_loop = 0.01;
    loop_mean_reps = 3.0;
    weighting = Unit_weights;
  }

(* Weighted variants: the same calibrated access streams with a heavy-
   tailed (truncated Pareto) file-size distribution layered on top as a
   pure function of the file id, so the event sequence is untouched.

   [sized-workstation] is transfer-bound — retrieval cost proportional
   to bytes moved, so one big file really does cost as much as many
   small ones. *)
let sized_workstation =
  {
    workstation with
    name = "sized-workstation";
    weighting =
      Pareto_weights { wseed = 9001; alpha = 1.2; max_size = 64; cost_base = 0; cost_per_size = 1 };
  }

(* [sized-server] is latency-bound — every fetch pays a fixed seek/RPC
   base beside a smaller per-byte term, so small-file misses are
   comparatively expensive and size alone does not rank victims. *)
let sized_server =
  {
    server with
    name = "sized-server";
    weighting =
      Pareto_weights { wseed = 9002; alpha = 0.95; max_size = 128; cost_base = 8; cost_per_size = 1 };
  }

let all = [ workstation; users; write; server ]
let extras = [ scientific; streaming; sized_workstation; sized_server ]
let sized = [ sized_workstation; sized_server ]

let by_name name = List.find_opt (fun p -> p.name = name) (all @ extras)

let weight_of p file =
  match p.weighting with
  | Unit_weights -> Agg_cache.Policy.unit_weight
  | Pareto_weights { wseed; alpha; max_size; cost_base; cost_per_size } ->
      (* a pure function of (wseed, file): deriving a child stream per id
         means the table does not depend on trace order or length *)
      let u =
        Agg_util.Prng.draw_float
          (Agg_util.Prng.derive_draw (Agg_util.Prng.create ~seed:wseed ()) file)
      in
      let raw = (1.0 -. u) ** (-1.0 /. alpha) in
      let size = max 1 (min max_size (int_of_float raw)) in
      let cost = max 1 (cost_base + (cost_per_size * size)) in
      { Agg_cache.Policy.size; cost }

let weights_for p trace =
  let weights = Agg_trace.Weights.create () in
  (match p.weighting with
  | Unit_weights -> ()
  | Pareto_weights _ ->
      let seen = Hashtbl.create 1024 in
      Agg_trace.Trace.iter
        (fun (e : Agg_trace.Event.t) ->
          if not (Hashtbl.mem seen e.file) then begin
            Hashtbl.add seen e.file ();
            Agg_trace.Weights.set weights e.file (weight_of p e.file)
          end)
        trace);
  weights

let distinct_file_estimate p =
  let mean_len = (p.task_len_min + p.task_len_max) / 2 in
  let private_files =
    int_of_float (float_of_int (p.tasks * mean_len) *. (1.0 -. p.shared_fraction))
  in
  p.shared_pool + p.background_files + private_files

let pp ppf p =
  Format.fprintf ppf
    "%s: clients=%d tasks=%d len=[%d,%d] shared=%d/%.2f noise(skip=%.2f sub=%.2f ins=%.2f) bg=%d/%.2f write=%.2f burst=%.0f"
    p.name p.clients p.tasks p.task_len_min p.task_len_max p.shared_pool p.shared_fraction p.p_skip
    p.p_substitute p.p_insert p.background_files p.p_background p.p_write p.burst_mean;
  match p.weighting with
  | Unit_weights -> ()
  | Pareto_weights { wseed; alpha; max_size; cost_base; cost_per_size } ->
      Format.fprintf ppf " sizes=pareto(seed=%d,a=%.2f,max=%d) cost=%d+%d*size" wseed alpha
        max_size cost_base cost_per_size
