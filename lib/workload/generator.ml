open Agg_util

type client_state = {
  tasks : Task.t array; (* this client's task scripts *)
  task_pick : Dist.Zipf.t; (* popularity of those scripts *)
  mutable current : Task.t;
  mutable position : int;
  mutable burst_left : int;
  mutable loop_files : int array; (* empty when not looping *)
  mutable loop_pos : int;
  mutable loop_left : int; (* loop emissions remaining *)
}

type state = {
  profile : Profile.t;
  prng : Prng.t;
  background : Dist.Zipf.t;
  clients : client_state array;
  fresh_file : unit -> int;
  mutable active : int;
  mutable emitted : int;
  mutable client : int; (* the last step's client *)
  mutable op : Agg_trace.Event.op; (* the last step's operation *)
}

(* Noise/background files occupy ids [shared_pool, shared_pool + background_files). *)
let background_file st =
  st.profile.shared_pool + Dist.Zipf.sample st.background st.prng

(* Task popularity rotates slowly: the Zipf rank order shifts by one every
   [phase_period] events, so which tasks are "hot" drifts over the trace.
   On top of that, an executed task occasionally swaps one of its files
   for a brand-new one (sources evolve). Both non-stationarities are what
   separate recency from frequency. *)
let fresh_task st client =
  let c = st.clients.(client) in
  let n = Array.length c.tasks in
  let rank = Dist.Zipf.sample c.task_pick st.prng in
  let phase =
    if st.profile.phase_period <= 0 then 0 else st.emitted / st.profile.phase_period
  in
  let task = c.tasks.((rank + phase) mod n) in
  if Prng.bernoulli st.prng ~p:st.profile.p_task_mutate && Task.length task > 0 then begin
    let at = Prng.int st.prng (Task.length task) in
    task.files.(at) <- st.fresh_file ()
  end;
  c.current <- task;
  c.position <- 0

let build_clients profile prng ~fresh_file =
  let shared_zipf = Dist.Zipf.create ~n:(Int.max 1 profile.Profile.shared_pool) ~s:1.1 in
  let all_tasks =
    Array.init profile.tasks (fun id ->
        let length = Prng.int_in_range prng ~lo:profile.task_len_min ~hi:profile.task_len_max in
        Task.build ~prng ~id ~length ~shared_pool:profile.shared_pool
          ~shared_fraction:profile.shared_fraction ~shared_zipf ~fresh_file
          ~loop_chance:profile.p_loop)
  in
  (* Deal the task scripts round-robin to clients: each stream has its own
     applications, as distinct users would. *)
  let per_client = Array.make profile.clients [] in
  Array.iteri (fun i task -> per_client.(i mod profile.clients) <- task :: per_client.(i mod profile.clients)) all_tasks;
  Array.map
    (fun tasks_list ->
      let tasks = Array.of_list (List.rev tasks_list) in
      if Array.length tasks = 0 then invalid_arg "Generator: more clients than tasks";
      {
        tasks;
        task_pick = Dist.Zipf.create ~n:(Array.length tasks) ~s:profile.task_zipf_s;
        current = tasks.(0);
        position = 0;
        burst_left = 0;
        loop_files = [||];
        loop_pos = 0;
        loop_left = 0;
      })
    per_client

let switch_client st =
  st.active <- Prng.int st.prng (Array.length st.clients);
  let burst = 1 + Dist.geometric st.prng ~p:(1.0 /. Float.max 1.0 st.profile.burst_mean) in
  st.clients.(st.active).burst_left <- burst

(* The task marks fixed loop points; each execution cycles the same window
   for a random number of iterations (an edit-compile or scan loop). *)
let maybe_enter_loop st c ~position =
  let task = c.current in
  let width = task.Task.loop_width.(position) in
  if width > 0 && width <= position + 1 then begin
    let reps =
      1 + Dist.geometric st.prng ~p:(1.0 /. Float.max 1.0 st.profile.loop_mean_reps)
    in
    c.loop_files <- Array.sub task.Task.files (position - width + 1) width;
    c.loop_pos <- 0;
    c.loop_left <- reps * width
  end

(* The next file for the active client, applying the §4.1-style noise:
   background interleaving, loops, skips, and substitutions. *)
let rec next_file st =
  let p = st.profile in
  if Prng.bernoulli st.prng ~p:p.p_background then background_file st
  else begin
    let c = st.clients.(st.active) in
    if c.loop_left > 0 then begin
      let file = c.loop_files.(c.loop_pos) in
      c.loop_pos <- (c.loop_pos + 1) mod Array.length c.loop_files;
      c.loop_left <- c.loop_left - 1;
      file
    end
    else if c.position >= Task.length c.current then begin
      fresh_task st st.active;
      next_file st
    end
    else if Prng.bernoulli st.prng ~p:p.p_insert then background_file st
    else begin
      let position = c.position in
      let file = c.current.files.(position) in
      c.position <- position + 1;
      if Prng.bernoulli st.prng ~p:p.p_skip then next_file st
      else if Prng.bernoulli st.prng ~p:p.p_substitute then background_file st
      else begin
        maybe_enter_loop st c ~position;
        file
      end
    end
  end

let make_state ?(seed = 42) profile =
  let prng = Prng.create ~seed () in
  let next_private = ref (profile.Profile.shared_pool + profile.background_files) in
  let fresh_file () =
    let id = !next_private in
    incr next_private;
    id
  in
  let clients = build_clients profile prng ~fresh_file in
  let st =
    {
      profile;
      prng;
      background =
        Dist.Zipf.create ~n:(Int.max 1 profile.background_files) ~s:profile.background_zipf_s;
      clients;
      fresh_file;
      active = 0;
      emitted = 0;
      client = 0;
      op = Agg_trace.Event.Open;
    }
  in
  Array.iteri (fun i _ -> st.active <- i; fresh_task st i) st.clients;
  st.active <- 0;
  switch_client st;
  st

(* One event: returns its file and leaves its client and operation in
   [st.client] and [st.op], so a step builds no tuple. *)
let step st =
  let c = st.clients.(st.active) in
  if c.burst_left <= 0 then switch_client st;
  let client = st.active in
  let file = next_file st in
  st.emitted <- st.emitted + 1;
  let c = st.clients.(client) in
  c.burst_left <- c.burst_left - 1;
  st.client <- client;
  st.op <-
    (if Prng.bernoulli st.prng ~p:st.profile.p_write then Agg_trace.Event.Write
     else Agg_trace.Event.Open);
  file

let fold ?seed ~events profile ~init ~f =
  if events < 0 then invalid_arg "Generator.fold: events must be non-negative";
  let st = make_state ?seed profile in
  let acc = ref init in
  for _ = 1 to events do
    let file = step st in
    acc := f !acc ~client:st.client ~op:st.op ~file
  done;
  !acc

let iter ?seed ~events profile ~f =
  if events < 0 then invalid_arg "Generator.iter: events must be non-negative";
  let st = make_state ?seed profile in
  for _ = 1 to events do
    let file = step st in
    f ~client:st.client ~op:st.op ~file
  done

let generate ?seed ~events profile =
  if events < 0 then invalid_arg "Generator.generate: events must be non-negative";
  let st = make_state ?seed profile in
  let trace = Agg_trace.Trace.create ~capacity:events () in
  for seq = 0 to events - 1 do
    let file = step st in
    Agg_trace.Trace.push trace ~seq ~client:st.client ~op:st.op file
  done;
  trace

let generate_files ?seed ~events profile =
  if events < 0 then invalid_arg "Generator.generate_files: events must be non-negative";
  let st = make_state ?seed profile in
  Array.init events (fun _ -> step st)
