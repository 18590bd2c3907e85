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
    ghost_order : Int_fifo.t;
    mutable size : int;
    mutable time : int;
  }

  let policy_name = "mq"

  (* [factor * capacity], saturating at [max_int / 2] so that a capacity
     near [max_int] neither wraps nor overflows [time + lifetime]. *)
  let scaled factor capacity =
    if factor > 0 && capacity > max_int / 2 / factor then max_int / 2 else factor * capacity

  let create_tuned ~capacity ~queues ~lifetime ~ghost_factor =
    if capacity <= 0 then invalid_arg "Mq.create: capacity must be positive";
    if queues <= 0 then invalid_arg "Mq.create: queues must be positive";
    let slots = Policy.presize capacity + queues + 2 in
    let arena = Dlist_arena.create ~capacity:slots () in
    {
      capacity;
      lifetime;
      arena;
      queues = Array.init queues (fun _ -> Dlist_arena.new_list arena);
      index = Int_table.create ();
      count = Array.make slots 0;
      queue = Array.make slots 0;
      expire = Array.make slots 0;
      ghost = Int_table.create ();
      ghost_order = Int_fifo.create ~bound:(scaled ghost_factor capacity);
      size = 0;
      time = 0;
    }

  let create ~capacity =
    create_tuned ~capacity ~queues:8 ~lifetime:(scaled 4 capacity) ~ghost_factor:4

  let capacity t = t.capacity
  let size t = t.size
  let mem t key = Int_table.mem t.index key

  (* The arena grows by doubling; keep the node-indexed side arrays covering
     every slot it can hand out. *)
  let ensure_node t node =
    if node >= Array.length t.count then begin
      let n = Array.length t.count in
      let grow (a : int array) =
        let b = Array.make (n + Int.max n (node + 1)) 0 in
        for i = 0 to n - 1 do
          b.(i) <- a.(i)
        done;
        b
      in
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
      let oldest = Int_fifo.push t.ghost_order key in
      if oldest >= 0 then Int_table.remove t.ghost oldest
    end;
    Int_table.set t.ghost key count

  let bump t node =
    tick t;
    t.count.(node) <- t.count.(node) + 1;
    t.queue.(node) <- queue_for t t.count.(node);
    t.expire.(node) <- t.time + t.lifetime;
    Dlist_arena.move_to_front t.arena t.queues.(t.queue.(node)) node

  let hit t key =
    let node = Int_table.get t.index key in
    if node < 0 then false
    else begin
      bump t node;
      true
    end

  (* demote to the cold end of the bottom queue *)
  let demote t key =
    let node = Int_table.get t.index key in
    if node < 0 then false
    else begin
      t.queue.(node) <- 0;
      t.count.(node) <- 0;
      Dlist_arena.move_to_back t.arena t.queues.(0) node;
      true
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

  let admit t ~pos key =
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

  let remove t key =
    let node = Int_table.get t.index key in
    if node < 0 then false
    else begin
      Dlist_arena.remove t.arena node;
      Int_table.remove t.index key;
      t.size <- t.size - 1;
      true
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
    Int_fifo.clear t.ghost_order;
    t.size <- 0;
    t.time <- 0

  let queue_of t key =
    let node = Int_table.get t.index key in
    if node < 0 then None else Some t.queue.(node)
end

type t = Core.t Lift.t

let policy_name = Core.policy_name
let create ~capacity = Lift.make (module Core) (Core.create ~capacity)

let create_tuned ~capacity ~queues ~lifetime ~ghost_factor =
  Lift.make (module Core) (Core.create_tuned ~capacity ~queues ~lifetime ~ghost_factor)

include (Lift : Policy.OPS with type 'c lifted := 'c Lift.t)

let queue_of t key = Core.queue_of (Lift.core t) key
