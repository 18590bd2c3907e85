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

let outages_on c = c.outage_period > 0 && c.outage_rate > 0.0 && c.outage_length > 0

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
   without building the generator. A fault class's stream is the fold of
   the seed and its tag, which a plan computes once. *)
let mix acc v = (acc * 0x100000001b3) lxor (v land max_int)
let stream seed tag = mix (mix 0x2545F4914F6CDD1D seed) tag

(* A plan keeps, beside its config, what every query would otherwise
   recompute: each fault class's stream, and [window], the accesses an
   outage lasts at the start of a faulty epoch (0 when outages are off). *)
type t = {
  config : config;
  enabled : bool;
  window : int;
  loss : int;
  outage : int;
  slow : int;
  crash : int;
}

let make config =
  validate config;
  let enabled =
    config.loss_rate > 0.0 || outages_on config || config.slow_rate > 0.0
    || config.crash_rate > 0.0
  in
  {
    config;
    enabled;
    window = (if outages_on config then Int.min config.outage_length config.outage_period else 0);
    loss = stream config.seed tag_loss;
    outage = stream config.seed tag_outage;
    slow = stream config.seed tag_slow;
    crash = stream config.seed tag_crash;
  }

let enabled t = t.enabled
let config t = t.config

let bernoulli ~stream ~a ~b ~p =
  p > 0.0
  &&
  let key = mix (mix stream a) b in
  Agg_util.Prng.draw_bernoulli (Agg_util.Prng.first_draw ~seed:(key land max_int)) ~p

let message_lost t ~time ~attempt =
  t.enabled && bernoulli ~stream:t.loss ~a:time ~b:attempt ~p:t.config.loss_rate

(* One division: the offset into the epoch is what the epoch leaves. *)
let server_down t ~time =
  t.window > 0 && time >= 0
  &&
  let period = t.config.outage_period in
  let epoch = time / period in
  time - (epoch * period) < t.window
  && bernoulli ~stream:t.outage ~a:epoch ~b:0 ~p:t.config.outage_rate

let latency_multiplier t ~time ~attempt =
  if t.enabled && bernoulli ~stream:t.slow ~a:time ~b:attempt ~p:t.config.slow_rate then
    t.config.slow_multiplier
  else 1.0

let client_crashes t ~time ~client =
  t.enabled && bernoulli ~stream:t.crash ~a:time ~b:client ~p:t.config.crash_rate
