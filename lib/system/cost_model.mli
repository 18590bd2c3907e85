(** Latency costs of the distributed path in Fig. 2 of the paper:
    client cache → network → server cache → server disk. All costs in
    milliseconds. The point of grouping is that the speculative members
    of a group ride along on a demand fetch's round trip, so a future
    client hit costs [client_memory] instead of a full remote fetch. *)

type t = {
  client_memory : float;  (** client cache hit *)
  network_rtt : float;  (** request/response round trip *)
  transfer_per_file : float;  (** per-file transmission time *)
  server_memory : float;  (** server cache copy *)
  server_disk : float;  (** disk read at the server *)
}

val lan : t
(** A 2000s-era departmental LAN: 0.05 ms client hit, 0.5 ms RTT,
    0.2 ms/file transfer, 0.05 ms server copy, 8 ms disk read. *)

val wan : t
(** A remote file server: 40 ms RTT, otherwise as {!lan}. *)

val demand_fetch_latency : t -> served_from_disk:bool -> float
(** Latency of the *demanded* file of a remote fetch: one RTT, the
    server-side service time, and one file transfer. Group members are
    pipelined behind it and do not add to this latency. *)
