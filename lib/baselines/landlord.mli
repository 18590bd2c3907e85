(** Landlord — Young's rent-based algorithm for file caching with sizes
    and retrieval costs ({e On-Line File Caching}, SODA 1998), kept in
    its GreedyDual-Size form (Cao & Irani).

    Every resident holds {e credit}, set to its retrieval cost when it is
    inserted and reset via {!val-charge} on a demand hit. When room is
    needed, every resident pays rent proportional to its size at the
    minimal credit/size ratio and a resident whose credit reaches zero is
    evicted. That uniform drain is GreedyDual-Size's inflation floor [L]:
    each resident stores one priority [H = L + cost/size], computed once
    whenever it is credited or re-credited, the victim is the minimal-[H]
    resident and eviction only raises [L] to the victim's [H] — no other
    resident is touched. Ties resolve towards the least recently used,
    which makes the policy access-for-access identical to LRU at unit
    size/cost.

    The priorities live in an indexed min-heap ({!Agg_util.Heap}) ordered
    by [(H, recency stamp)], so [promote], [charge], [insert] and [evict]
    are O(log n) and memory grows with the residents, not the capacity
    (a byte-valued capacity such as [max_int] is fine).

    Implements {!Agg_cache.Policy.S}; wrap with
    [Agg_cache.Cache.of_policy] for statistics. Deterministic: draws no
    randomness at all. *)

include Agg_cache.Policy.S
