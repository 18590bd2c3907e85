type config = {
  seed : int;
  loss_rate : float;
  outage_period : int;
  outage_rate : float;
  outage_length : int;
  slow_rate : float;
  slow_multiplier : float;
  crash_rate : float;
}

let none =
  {
    seed = 11;
    loss_rate = 0.0;
    outage_period = 0;
    outage_rate = 0.0;
    outage_length = 0;
    slow_rate = 0.0;
    slow_multiplier = 1.0;
    crash_rate = 0.0;
  }

let default =
  {
    none with
    loss_rate = 0.1;
    outage_period = 2000;
    outage_rate = 0.1;
    outage_length = 200;
    slow_rate = 0.05;
    slow_multiplier = 4.0;
  }

let check_rate name r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg (Printf.sprintf "Fault plan: %s must be in [0, 1] (got %g)" name r)

let validate c =
  check_rate "loss_rate" c.loss_rate;
  check_rate "outage_rate" c.outage_rate;
  check_rate "slow_rate" c.slow_rate;
  check_rate "crash_rate" c.crash_rate;
  if c.outage_period < 0 then
    invalid_arg
      (Printf.sprintf "Fault plan: outage_period must be non-negative (got %d)" c.outage_period);
  if c.outage_length < 0 then
    invalid_arg
      (Printf.sprintf "Fault plan: outage_length must be non-negative (got %d)" c.outage_length);
  if not (c.slow_multiplier >= 1.0) then
    invalid_arg
      (Printf.sprintf "Fault plan: slow_multiplier must be >= 1 (got %g)" c.slow_multiplier)

let pp_config ppf c =
  Format.fprintf ppf
    "seed=%d loss=%.3f outage=%.3f@%d/%d slow=%.3f x%.1f crash=%.5f" c.seed c.loss_rate
    c.outage_rate c.outage_length c.outage_period c.slow_rate c.slow_multiplier c.crash_rate

type t = { config : config; enabled : bool }

let outages_on c = c.outage_period > 0 && c.outage_rate > 0.0 && c.outage_length > 0

let disabled = { config = none; enabled = false }

let make config =
  validate config;
  let enabled =
    config.loss_rate > 0.0 || outages_on config || config.slow_rate > 0.0
    || config.crash_rate > 0.0
  in
  { config; enabled }

let enabled t = t.enabled
let config t = t.config

(* Stream tags keep the four fault classes statistically independent even
   when they are queried at the same coordinates. *)
let tag_loss = 1
let tag_outage = 2
let tag_slow = 3
let tag_crash = 4

(* Counter-based derivation: fold the query coordinates into one 63-bit
   value and let [Prng.create]'s SplitMix64 expansion do the mixing. Each
   decision is the first draw of that generator, so it is a pure function
   of (seed, tag, a, b) — independent of query order and of how sweep
   cells are scheduled across domains — and [Prng.first_draw] computes it
   without building the generator. *)
let mix acc v = (acc * 0x100000001b3) lxor (v land max_int)

let bernoulli t ~tag ~a ~b ~p =
  p > 0.0
  &&
  let key = mix (mix (mix (mix 0x2545F4914F6CDD1D t.config.seed) tag) a) b in
  Agg_util.Prng.draw_bernoulli (Agg_util.Prng.first_draw ~seed:(key land max_int)) ~p

let message_lost t ~time ~attempt =
  t.enabled && bernoulli t ~tag:tag_loss ~a:time ~b:attempt ~p:t.config.loss_rate

let server_down t ~time =
  t.enabled && outages_on t.config
  && time >= 0
  &&
  let c = t.config in
  let epoch = time / c.outage_period in
  let offset = time mod c.outage_period in
  offset < min c.outage_length c.outage_period
  && bernoulli t ~tag:tag_outage ~a:epoch ~b:0 ~p:c.outage_rate

let latency_multiplier t ~time ~attempt =
  if t.enabled && bernoulli t ~tag:tag_slow ~a:time ~b:attempt ~p:t.config.slow_rate then
    t.config.slow_multiplier
  else 1.0

let client_crashes t ~time ~client =
  t.enabled && bernoulli t ~tag:tag_crash ~a:time ~b:client ~p:t.config.crash_rate
