(** Online file-bundle caching — Landlord's rent mechanics with requests
    arriving as {e bundles} of files (after Qin & Etesami, {e Optimal
    Online Algorithms for File-Bundle Caching}), which is exactly the
    shape an aggregating group fetch produces.

    {!request_bundle} serves one bundle: resident members are promoted
    and re-credited with their retrieval cost, missing members are
    fetched (inserted hot, evicting by Landlord rent). Refreshing the
    whole bundle — not just the missing members — is what distinguishes
    it from per-file Landlord: co-requested files age and survive
    together. On singleton requests the policy coincides with
    {!Landlord}.

    Implements {!Agg_cache.Policy.S} (the per-file surface behaves as
    Landlord does); deterministic, draws no randomness at all. *)

include Agg_cache.Policy.S

val request_bundle : t -> weight_of:(int -> Agg_cache.Policy.weight) -> int list -> int list
(** [request_bundle t ~weight_of keys] serves the bundle [keys]
    (duplicates served once, first occurrence order): promotes and
    re-credits resident members (one fused {!val-hit} each), admits
    missing ones hot with [weight_of key]. Returns every victim evicted
    to make room, in eviction order; each also goes to the sink.
    @raise Invalid_argument when some [weight_of key] is non-positive. *)
