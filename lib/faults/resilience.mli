(** The client-side resilience policy for remote fetches: how long to
    wait, how often to retry, how fast to back off, and what to do when
    retries run out.

    The policy is what turns injected faults ({!Plan}) into the graceful
    degradation the paper's pitch depends on: a timed-out {e group} fetch
    falls back to a single-file demand fetch — the speculative members
    are dropped, but the demanded file is still served, so a flaky
    network costs prefetching benefit rather than availability. *)

type t = {
  timeout_ms : float;  (** budget the client waits before declaring an attempt dead *)
  max_retries : int;  (** retries after the first attempt; 0 = fail straight to fallback *)
  backoff_base_ms : float;  (** delay before the first retry *)
  backoff_multiplier : float;  (** exponential growth factor per further retry, >= 1 *)
}

val default : t
(** 100 ms timeout, 2 retries, 10 ms initial backoff doubling per retry —
    sized against {!Agg_system.Cost_model.lan}'s 8 ms disk read so a
    timeout hurts an order of magnitude more than a slow fetch. *)

val validate : t -> unit
(** @raise Invalid_argument on a non-positive timeout, negative retries,
    negative backoff, or [backoff_multiplier < 1]. *)

val backoff_ms : t -> attempt:int -> float
(** [backoff_ms t ~attempt] is the delay inserted before retry number
    [attempt] (1-based): [backoff_base_ms *. backoff_multiplier ^ (attempt - 1)].
    @raise Invalid_argument when [attempt < 1]. *)

val failure_cost_ms : t -> attempt:int -> float
(** Wall-clock cost of attempt number [attempt] (0-based) ending in a
    timeout: the timeout budget itself, plus the backoff delay before the
    next attempt when one remains. *)
