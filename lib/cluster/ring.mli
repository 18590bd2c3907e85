(** Seeded consistent-hash ring with fixed role-symmetric replication
    groups (the apothik Phase-3 design: a file's {e group} is a set of
    nodes with identical roles — no master, no replica — so any member
    can serve it and node loss needs no re-election).

    Every node contributes a fixed number of points on a 62-bit ring;
    point positions are pure functions of [(seed, node, point index)]
    drawn through {!Agg_util.Prng.derive}, so a ring is fully determined
    by its seed and membership. A file hashes to a ring position and is
    owned by the {e replication group} of the first [k] distinct nodes
    found walking clockwise from it; the first of those is the file's
    {e primary} owner.

    Because point positions do not depend on membership, {!add} and
    {!remove} rebalance minimally: after a join the only files whose
    group changes are those that now include the new node, and after a
    leave groups only gain members — the consistent-hashing guarantee
    the rebalancing tests pin down. *)

type t
(** Immutable ring value; {!add}/{!remove} return new rings. *)

val create : ?points_per_node:int -> seed:int -> nodes:int -> unit -> t
(** [create ~seed ~nodes ()] is a ring of the nodes [0 .. nodes - 1] with
    [points_per_node] (default 64) points each.
    @raise Invalid_argument when [nodes] or [points_per_node] is not
    positive. *)

val seed : t -> int
val points_per_node : t -> int

val members : t -> int list
(** Current member ids, sorted ascending. *)

val node_count : t -> int
val contains : t -> int -> bool

val add : t -> int -> t
(** [add t node] is [t] with [node] joined.
    @raise Invalid_argument when [node] is negative or already a
    member. *)

val remove : t -> int -> t
(** [remove t node] is [t] with [node] departed.
    @raise Invalid_argument when [node] is not a member or is the last
    remaining member. *)

val point_count : t -> int
(** The number of points on the ring: [points_per_node t * node_count t].
    Points are numbered [0 .. point_count t - 1] in ascending ring
    position. *)

val point_of : t -> int -> int
(** [point_of t file] is the number of the first ring point at or after
    [file]'s hash position, wrapping to 0 past the last: where [file]'s
    clockwise walk starts. Every file at one point has the same owner and
    group, so a table with one row per point answers both (the cluster's
    routing rows). A hash and a guide-table search; allocates nothing. *)

val owner : t -> int -> int
(** [owner t file] is the primary owner of [file]: the node of the first
    ring point at or after [file]'s hash position (wrapping). A pure
    function of the ring's seed and membership. *)

val point_group_into : t -> replicas:int -> int -> int array -> int
(** [point_group_into t ~replicas point buf] writes the first
    [min replicas (node_count t)] distinct nodes met walking clockwise
    from ring point [point] (itself first) to [buf.(0) .. buf.(n - 1)]
    and returns [n]. Only that prefix is read or written, so [buf] may
    hold anything beforehand. Allocates nothing.
    @raise Invalid_argument when [replicas] is not positive, [point] is
    not in [0 .. point_count t - 1], or [buf] is shorter than the
    group. *)

val group : t -> replicas:int -> int -> int list
(** [group t ~replicas file] is [file]'s replication group: the first
    [replicas] distinct nodes walking clockwise from [file]'s position,
    primary first. When [replicas] exceeds the member count the group is
    every member (clamped, so a shrinking cluster keeps serving).
    [group t ~replicas:1 file = [owner t file]]. A wrapper over
    {!group_into}.
    @raise Invalid_argument when [replicas] is not positive. *)

val group_into : t -> replicas:int -> int -> int array -> int
(** [group_into t ~replicas file buf] writes [group t ~replicas file] to
    [buf.(0) .. buf.(n - 1)], primary first, and returns [n] (which is
    [min replicas (node_count t)]): it is
    [point_group_into t ~replicas (point_of t file) buf]. Only that
    prefix is read or written, so [buf] may hold anything beforehand.
    Allocates nothing.
    @raise Invalid_argument when [replicas] is not positive or [buf] is
    shorter than the group. *)

val pp : Format.formatter -> t -> unit
