open Agg_util

module Core = struct
  (* Arena-backed MQ: every queue is an intrusive list in one shared arena.
     A resident key's node index is stable for its whole residency (moves
     between queues relink in place), so the per-entry bookkeeping lives in
     side arrays indexed by node — no boxed entries, no hashing. The ghost
     buffer is a direct-index count table plus a fixed int ring. *)

  type t = {
    capacity : int;
    lifetime : int;
    arena : Dlist_arena.t;
    queues : Dlist_arena.list_ array;
    index : Int_table.t; (* key -> node *)
    (* side arrays indexed by node *)
    mutable count : int array; (* lifetime reference count (restored from ghost) *)
    mutable queue : int array;
    mutable expire : int array; (* demote when current time passes this *)
    (* ghost buffer: reference counts of recently evicted keys, FIFO *)
    ghost : Int_table.t; (* key -> remembered count *)
    ghost_ring : int array;
    mutable ghost_head : int;
    mutable ghost_len : int;
    mutable size : int;
    mutable time : int;
  }

  let policy_name = "mq"

  let create_tuned ~capacity ~queues ~lifetime ~ghost_factor =
    if capacity <= 0 then invalid_arg "Mq.create: capacity must be positive";
    if queues <= 0 then invalid_arg "Mq.create: queues must be positive";
    let arena = Dlist_arena.create ~capacity:(capacity + queues + 2) () in
    let ghost_capacity = ghost_factor * capacity in
    {
      capacity;
      lifetime;
      arena;
      queues = Array.init queues (fun _ -> Dlist_arena.new_list arena);
      index = Int_table.create ~capacity:(2 * capacity) ();
      count = Array.make (capacity + queues + 2) 0;
      queue = Array.make (capacity + queues + 2) 0;
      expire = Array.make (capacity + queues + 2) 0;
      ghost = Int_table.create ~capacity:(2 * capacity) ();
      ghost_ring = Array.make (ghost_capacity + 1) 0;
      ghost_head = 0;
      ghost_len = 0;
      size = 0;
      time = 0;
    }

  let create ~capacity = create_tuned ~capacity ~queues:8 ~lifetime:(4 * capacity) ~ghost_factor:4

  let capacity t = t.capacity
  let size t = t.size
  let mem t key = Int_table.mem t.index key

  (* The arena grows by doubling; keep the node-indexed side arrays covering
     every slot it can hand out. *)
  let ensure_node t node =
    if node >= Array.length t.count then begin
      let grow a = Array.append a (Array.make (Int.max (Array.length a) (node + 1)) 0) in
      t.count <- grow t.count;
      t.queue <- grow t.queue;
      t.expire <- grow t.expire
    end

  (* queue for a block referenced [count] times: floor(log2 count), capped *)
  let queue_for t count =
    if count <= 0 then 0
    else begin
      let q = ref 0 in
      let c = ref count in
      while !c > 1 do
        c := !c lsr 1;
        incr q
      done;
      Int.min !q (Array.length t.queues - 1)
    end

  (* MQ's Adjust(): demote expired LRU-end blocks one queue at a time. *)
  let adjust t =
    let m = Array.length t.queues in
    for q = m - 1 downto 1 do
      let node = Dlist_arena.last t.arena t.queues.(q) in
      if node >= 0 && t.expire.(node) < t.time then begin
        t.queue.(node) <- q - 1;
        t.expire.(node) <- t.time + t.lifetime;
        Dlist_arena.move_to_front t.arena t.queues.(q - 1) node
      end
    done

  let tick t =
    t.time <- t.time + 1;
    adjust t

  let ghost_count t key =
    let v = Int_table.get t.ghost key in
    if v < 0 then 0 else v

  let ghost_remember t key count =
    if not (Int_table.mem t.ghost key) then begin
      let slot = (t.ghost_head + t.ghost_len) mod Array.length t.ghost_ring in
      t.ghost_ring.(slot) <- key;
      t.ghost_len <- t.ghost_len + 1;
      if t.ghost_len > Array.length t.ghost_ring - 1 then begin
        let victim = t.ghost_ring.(t.ghost_head) in
        t.ghost_head <- (t.ghost_head + 1) mod Array.length t.ghost_ring;
        t.ghost_len <- t.ghost_len - 1;
        Int_table.remove t.ghost victim
      end
    end;
    Int_table.set t.ghost key count

  let promote t key =
    let node = Int_table.get t.index key in
    if node >= 0 then begin
      tick t;
      t.count.(node) <- t.count.(node) + 1;
      t.queue.(node) <- queue_for t t.count.(node);
      t.expire.(node) <- t.time + t.lifetime;
      Dlist_arena.move_to_front t.arena t.queues.(t.queue.(node)) node
    end

  (* victim: LRU end of the lowest non-empty queue from [q] up *)
  let rec evict_from t q =
    if q >= Array.length t.queues then -1
    else begin
      let node = Dlist_arena.last t.arena t.queues.(q) in
      if node < 0 then evict_from t (q + 1)
      else begin
        let victim = Dlist_arena.key t.arena node in
        ghost_remember t victim t.count.(node);
        Dlist_arena.remove t.arena node;
        Int_table.remove t.index victim;
        t.size <- t.size - 1;
        victim
      end
    end

  let evict t = evict_from t 0

  let insert t ~pos key =
    let node = Int_table.get t.index key in
    if node >= 0 then begin
      (match pos with
      | Policy.Hot -> promote t key
      | Policy.Cold ->
          (* demote to the cold end of the bottom queue *)
          t.queue.(node) <- 0;
          t.count.(node) <- 0;
          Dlist_arena.move_to_back t.arena t.queues.(0) node);
      -1
    end
    else begin
      tick t;
      let victim = if t.size >= t.capacity then evict t else -1 in
      let count = match pos with Policy.Hot -> ghost_count t key + 1 | Policy.Cold -> 0 in
      let queue = queue_for t count in
      let dst = t.queues.(queue) in
      let node =
        match pos with
        | Policy.Hot -> Dlist_arena.push_front t.arena dst key
        | Policy.Cold -> Dlist_arena.push_back t.arena dst key
      in
      ensure_node t node;
      t.count.(node) <- count;
      t.queue.(node) <- queue;
      t.expire.(node) <- t.time + t.lifetime;
      Int_table.set t.index key node;
      t.size <- t.size + 1;
      victim
    end

  let remove t key =
    let node = Int_table.get t.index key in
    if node >= 0 then begin
      Dlist_arena.remove t.arena node;
      Int_table.remove t.index key;
      t.size <- t.size - 1
    end

  let contents t =
    let out = ref [] in
    Array.iter (fun q -> Dlist_arena.iter t.arena q (fun key -> out := key :: !out)) t.queues;
    (* collected low-queue-first front-to-back; reverse for hot-first *)
    !out

  let clear t =
    Array.iter (fun q -> Dlist_arena.clear_list t.arena q) t.queues;
    Int_table.clear t.index;
    Int_table.clear t.ghost;
    t.ghost_head <- 0;
    t.ghost_len <- 0;
    t.size <- 0;
    t.time <- 0

  let queue_of t key =
    let node = Int_table.get t.index key in
    if node < 0 then None else Some t.queue.(node)
end

include Policy.Weighted_of_unit (Core)

let create_tuned ~capacity ~queues ~lifetime ~ghost_factor =
  of_core (Core.create_tuned ~capacity ~queues ~lifetime ~ghost_factor)

let queue_of t key = Core.queue_of (core t) key
