type t = {
  mutable lost_messages : int;
  mutable outage_denials : int;
  mutable timeouts : int;
  mutable retries : int;
  mutable degraded_fetches : int;
  mutable slowed_fetches : int;
  mutable crashes : int;
}

let create () =
  {
    lost_messages = 0;
    outage_denials = 0;
    timeouts = 0;
    retries = 0;
    degraded_fetches = 0;
    slowed_fetches = 0;
    crashes = 0;
  }

let copy t = { t with lost_messages = t.lost_messages }

let total_faults t = t.timeouts + t.slowed_fetches + t.crashes

let equal a b =
  a.lost_messages = b.lost_messages
  && a.outage_denials = b.outage_denials
  && a.timeouts = b.timeouts && a.retries = b.retries
  && a.degraded_fetches = b.degraded_fetches
  && a.slowed_fetches = b.slowed_fetches
  && a.crashes = b.crashes
