type t = { id : int; files : Agg_trace.File_id.t array; loop_width : int array }

let length t = Array.length t.files

let build ~prng ~id ~length ~shared_pool ~shared_fraction ~shared_zipf ~fresh_file ~loop_chance =
  if length <= 0 then invalid_arg "Task.build: length must be positive";
  let files = Array.make length 0 in
  for i = 0 to length - 1 do
    let draw () =
      if shared_pool > 0 && Agg_util.Prng.bernoulli prng ~p:shared_fraction then
        Agg_util.Dist.Zipf.sample shared_zipf prng
      else fresh_file ()
    in
    let rec non_repeating attempts =
      let f = draw () in
      if attempts > 0 && i > 0 && f = files.(i - 1) then non_repeating (attempts - 1) else f
    in
    files.(i) <- non_repeating 8
  done;
  let loop_width = Array.make length 0 in
  for i = 2 to length - 1 do
    if Agg_util.Prng.bernoulli prng ~p:loop_chance then
      loop_width.(i) <- 2 + Agg_util.Prng.int prng (Int.min i 6 - 1)
  done;
  { id; files; loop_width }
