(** Workload profiles standing in for the four CMU DFSTrace systems of the
    paper (§4.1). The parameters are calibrated so that the paper's
    *qualitative* workload orderings hold:

    - [server] (barber) — application-driven, long deterministic runs, the
      most predictable (successor entropy well under one bit at length 1);
    - [workstation] (mozart) — a single interactive user, moderately
      predictable;
    - [users] (ives) — many concurrent users finely interleaved, the least
      predictable global sequence;
    - [write] (dvorak) — the heaviest write share and the most cold,
      unique files, giving grouping the most modest wins. *)

(** The size/cost axis layered over a profile's access stream. Weights
    are a {e pure function of the file id} (derived per-id PRNG streams),
    so turning weighting on or off never perturbs the generated event
    sequence — the 24 paper checks replay byte-identically. *)
type weighting =
  | Unit_weights  (** every file is size 1 / cost 1 — the paper's model *)
  | Pareto_weights of {
      wseed : int;  (** seed of the weight table, independent of the trace seed *)
      alpha : float;  (** Pareto tail index; smaller means heavier tail *)
      max_size : int;  (** truncation cap on file size *)
      cost_base : int;  (** fixed per-fetch (seek/RPC) cost component *)
      cost_per_size : int;  (** transfer cost per size unit *)
    }

type t = {
  name : string;
  clients : int;  (** independent request streams *)
  tasks : int;  (** distinct task scripts in the universe *)
  task_len_min : int;
  task_len_max : int;
  shared_pool : int;  (** globally shared utility files (shell, make, …) *)
  shared_fraction : float;  (** probability a task position is a shared file *)
  task_zipf_s : float;  (** skew of task popularity (re-execution rate) *)
  p_skip : float;  (** per-position chance a task file is skipped *)
  p_substitute : float;  (** chance a task file is replaced by noise *)
  p_insert : float;  (** chance a noise access is inserted between steps *)
  background_files : int;  (** size of the cold/noise file population *)
  background_zipf_s : float;
  p_background : float;  (** chance a step is pure background traffic *)
  p_write : float;  (** chance an event is a write *)
  burst_mean : float;  (** mean run length before switching client streams *)
  phase_period : int;
      (** events between popularity shifts: task popularity ranks rotate
          slowly, modelling projects waxing and waning. This
          non-stationarity is what makes frequency (LFU) unreliable and
          recency (LRU) robust, as in the paper's traces; [0] disables. *)
  p_task_mutate : float;
      (** per-execution chance that a task permanently swaps one of its
          files for a fresh one (sources evolve, outputs are regenerated).
          Successor relations therefore *drift*, so stale frequency counts
          mispredict where the most recent successor adapts — the §4.4
          recency-over-frequency effect at the metadata level. *)
  p_loop : float;
      (** per-step chance of entering a short working-set loop: the last
          few task files are re-accessed cyclically (edit-compile cycles,
          scan loops). Loops are what a tiny intervening cache absorbs —
          removing the most predictable successions from the miss stream,
          the paper's Fig. 8 capacity-10 effect. *)
  loop_mean_reps : float;  (** mean iterations of such a loop *)
  weighting : weighting;
      (** per-file size/cost model; {!Unit_weights} for all paper
          profiles, so weighted replay is opt-in per profile. *)
}

val workstation : t
val users : t
val write : t
val server : t

val sized_workstation : t
(** [workstation] with heavy-tailed Pareto file sizes and transfer-bound
    cost (cost = size): the "does one big file really cost five small
    ones" regime. *)

val all : t list
(** The four paper workloads, in the paper's naming order. The
    paper-vs-measured checks sweep exactly this list, so it never grows;
    extra profiles live in {!extras}. *)

val extras : t list
(** Calibrated profiles beyond the paper ([scientific], [streaming]) —
    reachable via {!by_name} and the scenario corpus, excluded from the
    paper's check tables. *)

val sized : t list
(** The two size/cost-skewed profiles, in sweep order. *)

val by_name : string -> t option
(** Finds a profile in {!all} or {!extras} by name. *)

val weight_of : t -> Agg_trace.File_id.t -> Agg_cache.Policy.weight
(** [weight_of p file] is [file]'s size/cost under [p.weighting] — a pure
    function of the profile and the id (no generator state involved).
    Unit for {!Unit_weights} profiles. *)

val weights_for : t -> Agg_trace.Trace.t -> Agg_trace.Weights.t
(** The weight table covering every distinct file of [trace], suitable
    for {!Agg_trace.Codec.write_file}. Empty for {!Unit_weights}
    profiles. *)

val distinct_file_estimate : t -> int
(** Rough size of the file universe the profile can touch. *)

val pp : Format.formatter -> t -> unit
