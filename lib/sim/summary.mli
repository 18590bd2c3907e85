(** The headline numbers of the paper's abstract and conclusions,
    recomputed from the simulations: client demand-fetch reduction from
    grouping, and server hit-rate improvement over LRU under intervening
    caches (a view of Fig. 4). *)

type client_row = {
  workload : string;
  capacity : int;
  lru_fetches : int;
  g5_fetches : int;
  reduction_percent : float;
}

type server_row = {
  workload : string;
  filter_capacity : int;
  lru_hit_rate : float;  (** percent *)
  g5_hit_rate : float;  (** percent *)
  improvement_percent : float;  (** relative improvement of g5 over LRU *)
}

val improvement : lru:float -> g5:float -> float
(** Relative improvement in percent, total on the whole domain: [0.] when
    both rates are zero, [infinity] when only the baseline is (rendered
    as ["n/a"] by {!server_table}) — never nan. *)

val client_rows : ?settings:Experiment.settings -> ?capacity:int -> unit -> client_row list
(** One row per workload at the given client cache capacity (default 300). *)

val server_rows : Experiment.figure -> server_row list
(** One row per (panel, filter capacity) of a {!Fig4.run} figure, read off
    its ["g5"] and ["lru"] series: workstation, users and server, at every
    filter capacity. Simulates nothing.
    @raise Invalid_argument when a panel lacks either series or a
    capacity. *)

val client_table : client_row list -> Agg_util.Table.t
val server_table : server_row list -> Agg_util.Table.t
