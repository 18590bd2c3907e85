type t = {
  timeout_ms : float;
  max_retries : int;
  backoff_base_ms : float;
  backoff_multiplier : float;
}

let default =
  { timeout_ms = 100.0; max_retries = 2; backoff_base_ms = 10.0; backoff_multiplier = 2.0 }

let validate t =
  if not (t.timeout_ms > 0.0) then
    invalid_arg (Printf.sprintf "Resilience: timeout_ms must be positive (got %g)" t.timeout_ms);
  if t.max_retries < 0 then
    invalid_arg (Printf.sprintf "Resilience: max_retries must be non-negative (got %d)" t.max_retries);
  if not (t.backoff_base_ms >= 0.0) then
    invalid_arg
      (Printf.sprintf "Resilience: backoff_base_ms must be non-negative (got %g)" t.backoff_base_ms);
  if not (t.backoff_multiplier >= 1.0) then
    invalid_arg
      (Printf.sprintf "Resilience: backoff_multiplier must be >= 1 (got %g)" t.backoff_multiplier)

let backoff_ms t ~attempt =
  if attempt < 1 then invalid_arg "Resilience.backoff_ms: attempt must be >= 1";
  let rec grow delay n = if n <= 1 then delay else grow (delay *. t.backoff_multiplier) (n - 1) in
  grow t.backoff_base_ms attempt

let failure_cost_ms t ~attempt =
  if attempt < t.max_retries then t.timeout_ms +. backoff_ms t ~attempt:(attempt + 1)
  else t.timeout_ms
