open Agg_util
module Cache = Agg_cache.Cache
module Policy = Agg_cache.Policy

(* Every model below represents recency orders as plain [int list]s with
   the hot end first, and does membership tests by linear scan. The point
   is to restate each policy's semantics in the most transparent terms
   available; none of the clever structures of lib/cache appear here. *)

let remove_one key l = List.filter (fun k -> k <> key) l
let push_front key l = key :: l
let push_back key l = l @ [ key ]

(* [pop_back l] is [(last element, rest)]. *)
let pop_back l =
  match List.rev l with [] -> (None, l) | last :: rev_rest -> (Some last, List.rev rev_rest)

let move_to_front key l = key :: remove_one key l
let move_to_back key l = remove_one key l @ [ key ]

(* --- LRU / MRU / FIFO: one recency list -------------------------------- *)

type order_model = { mutable order : int list (* hot end first *) }

(* --- LFU: full (count, tick) bookkeeping ------------------------------- *)

type lfu_entry = { mutable count : int; mutable tick : int }
type lfu_model = { mutable entries : (int * lfu_entry) list; mutable lfu_clock : int }

(* --- CLOCK: the slot array, hand and reference bits, restated ---------- *)

type clock_slot = { mutable ckey : int; mutable referenced : bool; mutable occupied : bool }
type clock_model = { slots : clock_slot array; mutable hand : int; mutable csize : int }

(* --- SLRU: probationary and protected recency lists -------------------- *)

type slru_model = { prot_cap : int; mutable prob : int list; mutable prot : int list }

(* --- 2Q: A1in FIFO, Am LRU, and the ghost set with its FIFO order ------ *)

type twoq_model = {
  a1in_cap : int;
  tq_ghost_cap : int;
  mutable a1in : int list;
  mutable am : int list;
  mutable ghost_members : int list; (* membership, mirrors the hashtable *)
  mutable ghost_fifo : int list; (* arrival order, oldest first *)
}

(* --- MQ: per-queue recency lists, lifetimes, ghost counts -------------- *)

type mq_entry = { mutable mcount : int; mutable mqueue : int; mutable mexpire : int }

type mq_model = {
  lifetime : int;
  mq_ghost_cap : int;
  mq_lists : int list array; (* hot end first *)
  mutable mq_entries : (int * mq_entry) list;
  mutable mq_ghost : (int * int) list; (* key -> remembered count *)
  mutable mq_ghost_fifo : int list; (* oldest first *)
  mutable mq_time : int;
}

(* --- ARC: the four lists and the adaptation target --------------------- *)

type arc_model = {
  mutable t1 : int list;
  mutable t2 : int list;
  mutable b1 : int list;
  mutable b2 : int list;
  mutable p : int;
}

(* --- Random: the dense key array with swap-remove, plus the PRNG ------- *)

type random_model = { mutable keys : int list (* index order, position 0 first *); prng : Prng.t }

type state =
  | Lru of order_model
  | Mru of order_model
  | Fifo of order_model
  | Lfu of lfu_model
  | Clock of clock_model
  | Slru of slru_model
  | Twoq of twoq_model
  | Mq of mq_model
  | Arc of arc_model
  | Random of random_model

(* The weighted fields restate [Policy.Weighted_of_unit]'s side-car
   bookkeeping as an assoc list: only non-unit sizes are recorded, so at
   unit weights the list stays empty and [wused] mirrors the count. *)
type t = {
  kind : Cache.kind;
  capacity : int;
  state : state;
  mutable wsizes : (int * int) list; (* key -> size, non-unit entries only *)
  mutable wnonunit : int; (* residents whose size is not 1 *)
  mutable wused : int; (* total resident size *)
}

(* The seed baked into [Random_policy.create], so model and optimized
   caches draw identical victim streams. *)
let default_random_seed = 0x5eed

let create ?(seed = default_random_seed) kind ~capacity =
  if capacity <= 0 then invalid_arg "Model_cache.create: capacity must be positive";
  let state =
    match kind with
    | Cache.Lru -> Lru { order = [] }
    | Cache.Mru -> Mru { order = [] }
    | Cache.Fifo -> Fifo { order = [] }
    | Cache.Lfu -> Lfu { entries = []; lfu_clock = 0 }
    | Cache.Clock ->
        Clock
          {
            slots = Array.init capacity (fun _ -> { ckey = 0; referenced = false; occupied = false });
            hand = 0;
            csize = 0;
          }
    | Cache.Slru -> Slru { prot_cap = max 1 (2 * capacity / 3); prob = []; prot = [] }
    | Cache.Twoq ->
        Twoq
          {
            a1in_cap = max 1 (capacity / 4);
            tq_ghost_cap = max 1 (capacity / 2);
            a1in = [];
            am = [];
            ghost_members = [];
            ghost_fifo = [];
          }
    | Cache.Mq ->
        Mq
          {
            lifetime = 4 * capacity;
            mq_ghost_cap = 4 * capacity;
            mq_lists = Array.make 8 [];
            mq_entries = [];
            mq_ghost = [];
            mq_ghost_fifo = [];
            mq_time = 0;
          }
    | Cache.Arc -> Arc { t1 = []; t2 = []; b1 = []; b2 = []; p = 0 }
    | Cache.Random -> Random { keys = []; prng = Prng.create ~seed () }
  in
  { kind; capacity; state; wsizes = []; wnonunit = 0; wused = 0 }

let kind t = t.kind
let capacity t = t.capacity

(* --- sizes and membership --------------------------------------------- *)

let size t =
  match t.state with
  | Lru m | Mru m | Fifo m -> List.length m.order
  | Lfu m -> List.length m.entries
  | Clock m -> m.csize
  | Slru m -> List.length m.prob + List.length m.prot
  | Twoq m -> List.length m.a1in + List.length m.am
  | Mq m -> List.length m.mq_entries
  | Arc m -> List.length m.t1 + List.length m.t2
  | Random m -> List.length m.keys

let mem t key =
  match t.state with
  | Lru m | Mru m | Fifo m -> List.mem key m.order
  | Lfu m -> List.mem_assoc key m.entries
  | Clock m -> Array.exists (fun s -> s.occupied && s.ckey = key) m.slots
  | Slru m -> List.mem key m.prob || List.mem key m.prot
  | Twoq m -> List.mem key m.a1in || List.mem key m.am
  | Mq m -> List.mem_assoc key m.mq_entries
  | Arc m -> List.mem key m.t1 || List.mem key m.t2
  | Random m -> List.mem key m.keys

let contents t =
  match t.state with
  | Lru m | Mru m | Fifo m -> m.order
  | Lfu m -> List.map fst m.entries
  | Clock m ->
      Array.fold_left (fun acc s -> if s.occupied then s.ckey :: acc else acc) [] m.slots
  | Slru m -> m.prot @ m.prob
  | Twoq m -> m.am @ m.a1in
  | Mq m -> List.map fst m.mq_entries
  | Arc m -> m.t2 @ m.t1
  | Random m -> m.keys

(* --- LFU helpers -------------------------------------------------------- *)

let lfu_tick (m : lfu_model) =
  m.lfu_clock <- m.lfu_clock + 1;
  m.lfu_clock

(* The victim is the entry with the smallest (count, tick) pair; ticks are
   unique, so the order is total. *)
let lfu_victim (m : lfu_model) =
  List.fold_left
    (fun acc (key, e) ->
      match acc with
      | None -> Some (key, e)
      | Some (_, best) ->
          if e.count < best.count || (e.count = best.count && e.tick < best.tick) then Some (key, e)
          else acc)
    None m.entries

let lfu_evict (m : lfu_model) =
  match lfu_victim m with
  | None -> None
  | Some (key, _) ->
      m.entries <- List.remove_assoc key m.entries;
      Some key

(* --- CLOCK helpers ------------------------------------------------------ *)

let clock_advance capacity (m : clock_model) = m.hand <- (m.hand + 1) mod capacity

let rec clock_find_victim capacity (m : clock_model) =
  let slot = m.slots.(m.hand) in
  if not slot.occupied then begin
    clock_advance capacity m;
    clock_find_victim capacity m
  end
  else if slot.referenced then begin
    slot.referenced <- false;
    clock_advance capacity m;
    clock_find_victim capacity m
  end
  else begin
    let at = m.hand in
    clock_advance capacity m;
    at
  end

(* First unoccupied slot scanning forward from the hand; the hand itself
   does not move. *)
let clock_free_slot capacity (m : clock_model) =
  let rec scan i remaining =
    if remaining = 0 then None
    else if not m.slots.(i).occupied then Some i
    else scan ((i + 1) mod capacity) (remaining - 1)
  in
  scan m.hand capacity

let clock_evict capacity (m : clock_model) =
  if m.csize = 0 then None
  else begin
    let i = clock_find_victim capacity m in
    let victim = m.slots.(i).ckey in
    m.slots.(i).occupied <- false;
    m.csize <- m.csize - 1;
    Some victim
  end

(* --- SLRU helpers ------------------------------------------------------- *)

let slru_demote_one (m : slru_model) =
  match pop_back m.prot with
  | Some key, rest ->
      m.prot <- rest;
      m.prob <- push_front key m.prob
  | None, _ -> ()

let slru_promote (m : slru_model) key =
  if List.mem key m.prot then m.prot <- move_to_front key m.prot
  else if List.mem key m.prob then begin
    m.prob <- remove_one key m.prob;
    m.prot <- push_front key m.prot;
    if List.length m.prot > m.prot_cap then slru_demote_one m
  end

let slru_evict (m : slru_model) =
  match pop_back m.prob with
  | Some victim, rest ->
      m.prob <- rest;
      Some victim
  | None, _ -> (
      match pop_back m.prot with
      | Some victim, rest ->
          m.prot <- rest;
          Some victim
      | None, _ -> None)

(* --- 2Q helpers --------------------------------------------------------- *)

let twoq_ghost_remember (m : twoq_model) key =
  if not (List.mem key m.ghost_members) then begin
    m.ghost_members <- key :: m.ghost_members;
    m.ghost_fifo <- m.ghost_fifo @ [ key ];
    if List.length m.ghost_fifo > m.tq_ghost_cap then begin
      match m.ghost_fifo with
      | oldest :: rest ->
          m.ghost_fifo <- rest;
          m.ghost_members <- remove_one oldest m.ghost_members
      | [] -> ()
    end
  end

let twoq_evict (m : twoq_model) =
  let from_a1in () =
    match pop_back m.a1in with
    | Some victim, rest ->
        m.a1in <- rest;
        twoq_ghost_remember m victim;
        Some victim
    | None, _ -> None
  in
  let from_am () =
    match pop_back m.am with
    | Some victim, rest ->
        m.am <- rest;
        Some victim
    | None, _ -> None
  in
  if List.length m.a1in > m.a1in_cap then from_a1in ()
  else match from_am () with Some v -> Some v | None -> from_a1in ()

(* --- MQ helpers --------------------------------------------------------- *)

let mq_queue_for (m : mq_model) count =
  if count <= 0 then 0
  else begin
    let q = ref 0 in
    let c = ref count in
    while !c > 1 do
      c := !c lsr 1;
      incr q
    done;
    min !q (Array.length m.mq_lists - 1)
  end

let mq_entry_of (m : mq_model) key = List.assoc_opt key m.mq_entries

(* Adjust(): at most one expired block demoted per queue per tick, taken
   from the LRU end, re-inserted at the MRU end one level down. *)
let mq_adjust (m : mq_model) =
  let n = Array.length m.mq_lists in
  for q = n - 1 downto 1 do
    match fst (pop_back m.mq_lists.(q)) with
    | Some key -> (
        match mq_entry_of m key with
        | Some e when e.mexpire < m.mq_time ->
            m.mq_lists.(q) <- remove_one key m.mq_lists.(q);
            e.mqueue <- q - 1;
            e.mexpire <- m.mq_time + m.lifetime;
            m.mq_lists.(q - 1) <- push_front key m.mq_lists.(q - 1)
        | Some _ | None -> ())
    | None -> ()
  done

let mq_tick (m : mq_model) =
  m.mq_time <- m.mq_time + 1;
  mq_adjust m

let mq_ghost_remember (m : mq_model) key count =
  if not (List.mem_assoc key m.mq_ghost) then begin
    m.mq_ghost_fifo <- m.mq_ghost_fifo @ [ key ];
    if List.length m.mq_ghost_fifo > m.mq_ghost_cap then begin
      match m.mq_ghost_fifo with
      | victim :: rest ->
          m.mq_ghost_fifo <- rest;
          m.mq_ghost <- List.remove_assoc victim m.mq_ghost
      | [] -> ()
    end
  end;
  m.mq_ghost <- (key, count) :: List.remove_assoc key m.mq_ghost

let mq_evict (m : mq_model) =
  let n = Array.length m.mq_lists in
  let rec scan q =
    if q >= n then None
    else
      match pop_back m.mq_lists.(q) with
      | Some victim, rest ->
          m.mq_lists.(q) <- rest;
          (match mq_entry_of m victim with
          | Some e -> mq_ghost_remember m victim e.mcount
          | None -> ());
          m.mq_entries <- List.remove_assoc victim m.mq_entries;
          Some victim
      | None, _ -> scan (q + 1)
  in
  scan 0

let mq_promote (m : mq_model) key =
  match mq_entry_of m key with
  | Some e ->
      mq_tick m;
      m.mq_lists.(e.mqueue) <- remove_one key m.mq_lists.(e.mqueue);
      e.mcount <- e.mcount + 1;
      e.mqueue <- mq_queue_for m e.mcount;
      e.mexpire <- m.mq_time + m.lifetime;
      m.mq_lists.(e.mqueue) <- push_front key m.mq_lists.(e.mqueue)
  | None -> ()

(* --- ARC helpers -------------------------------------------------------- *)

type arc_where = AT1 | AT2 | AB1 | AB2

let arc_where_of (m : arc_model) key =
  if List.mem key m.t1 then Some AT1
  else if List.mem key m.t2 then Some AT2
  else if List.mem key m.b1 then Some AB1
  else if List.mem key m.b2 then Some AB2
  else None

let arc_detach (m : arc_model) key =
  m.t1 <- remove_one key m.t1;
  m.t2 <- remove_one key m.t2;
  m.b1 <- remove_one key m.b1;
  m.b2 <- remove_one key m.b2

let arc_size (m : arc_model) = List.length m.t1 + List.length m.t2

(* REPLACE: push the victim of T1 (into ghost B1) or T2 (into B2) per the
   adaptation target; fall back to the other list when the chosen one is
   empty. Ghost entries join at the list front. *)
let arc_replace capacity (m : arc_model) ~hit_in_b2 =
  ignore capacity;
  let t1_len = List.length m.t1 in
  let from_t1 = t1_len >= 1 && (t1_len > m.p || (hit_in_b2 && t1_len = m.p)) in
  let try_pop use_t1 =
    if use_t1 then
      match pop_back m.t1 with
      | Some victim, rest ->
          m.t1 <- rest;
          m.b1 <- push_front victim m.b1;
          Some victim
      | None, _ -> None
    else
      match pop_back m.t2 with
      | Some victim, rest ->
          m.t2 <- rest;
          m.b2 <- push_front victim m.b2;
          Some victim
      | None, _ -> None
  in
  match try_pop from_t1 with Some v -> Some v | None -> try_pop (not from_t1)

let arc_drop_ghost_lru (m : arc_model) ~b1 =
  if b1 then (
    match pop_back m.b1 with Some _, rest -> m.b1 <- rest | None, _ -> ())
  else match pop_back m.b2 with Some _, rest -> m.b2 <- rest | None, _ -> ()

(* --- Random helpers ----------------------------------------------------- *)

(* Swap-remove at position [i], exactly as the optimized dense array. *)
let random_remove_at (m : random_model) i =
  let arr = Array.of_list m.keys in
  let last = Array.length arr - 1 in
  let victim = arr.(i) in
  arr.(i) <- arr.(last);
  m.keys <- Array.to_list (Array.sub arr 0 last);
  victim

let random_evict (m : random_model) =
  let n = List.length m.keys in
  if n = 0 then None else Some (random_remove_at m (Prng.int m.prng n))

(* --- the Policy.S surface ----------------------------------------------- *)

let promote t key =
  match t.state with
  | Lru m | Mru m -> if List.mem key m.order then m.order <- move_to_front key m.order
  | Fifo _ -> ()
  | Lfu m -> (
      match List.assoc_opt key m.entries with
      | Some e ->
          e.count <- e.count + 1;
          e.tick <- lfu_tick m
      | None -> ())
  | Clock m ->
      Array.iter (fun s -> if s.occupied && s.ckey = key then s.referenced <- true) m.slots
  | Slru m -> slru_promote m key
  | Twoq m -> if List.mem key m.am then m.am <- move_to_front key m.am
  | Mq m -> mq_promote m key
  | Arc m -> (
      match arc_where_of m key with
      | Some (AT1 | AT2) ->
          arc_detach m key;
          m.t2 <- push_front key m.t2
      | Some (AB1 | AB2) | None -> ())
  | Random _ -> ()

let unit_evict t =
  match t.state with
  | Lru m | Fifo m -> (
      match pop_back m.order with
      | Some victim, rest ->
          m.order <- rest;
          Some victim
      | None, _ -> None)
  | Mru m -> (
      match m.order with
      | victim :: rest ->
          m.order <- rest;
          Some victim
      | [] -> None)
  | Lfu m -> lfu_evict m
  | Clock m -> clock_evict t.capacity m
  | Slru m -> slru_evict m
  | Twoq m -> twoq_evict m
  | Mq m -> mq_evict m
  | Arc m -> arc_replace t.capacity m ~hit_in_b2:false
  | Random m -> random_evict m

let unit_insert t ~pos key =
  let full () = size t >= t.capacity in
  match t.state with
  | Lru m | Mru m ->
      if List.mem key m.order then begin
        (match pos with
        | Policy.Hot -> m.order <- move_to_front key m.order
        | Policy.Cold -> m.order <- move_to_back key m.order);
        None
      end
      else begin
        let victim = if full () then unit_evict t else None in
        (match pos with
        | Policy.Hot -> m.order <- push_front key m.order
        | Policy.Cold -> m.order <- push_back key m.order);
        victim
      end
  | Fifo m ->
      if List.mem key m.order then begin
        (match pos with Policy.Hot -> () | Policy.Cold -> m.order <- move_to_back key m.order);
        None
      end
      else begin
        let victim = if full () then unit_evict t else None in
        (match pos with
        | Policy.Hot -> m.order <- push_front key m.order
        | Policy.Cold -> m.order <- push_back key m.order);
        victim
      end
  | Lfu m -> (
      match List.assoc_opt key m.entries with
      | Some e ->
          (match pos with
          | Policy.Hot -> e.count <- e.count + 1
          | Policy.Cold -> e.count <- 0);
          e.tick <- lfu_tick m;
          None
      | None ->
          let victim = if full () then lfu_evict m else None in
          let count = match pos with Policy.Hot -> 1 | Policy.Cold -> 0 in
          m.entries <- (key, { count; tick = lfu_tick m }) :: m.entries;
          victim)
  | Clock m -> (
      match Array.find_opt (fun s -> s.occupied && s.ckey = key) m.slots with
      | Some slot ->
          slot.referenced <- (match pos with Policy.Hot -> true | Policy.Cold -> false);
          None
      | None ->
          let slot_idx, victim =
            if m.csize < t.capacity then (
              match clock_free_slot t.capacity m with
              | Some i -> (i, None)
              | None -> assert false)
            else begin
              let i = clock_find_victim t.capacity m in
              let old = m.slots.(i).ckey in
              m.csize <- m.csize - 1;
              (i, Some old)
            end
          in
          let slot = m.slots.(slot_idx) in
          slot.ckey <- key;
          slot.occupied <- true;
          slot.referenced <- (match pos with Policy.Hot -> true | Policy.Cold -> false);
          m.csize <- m.csize + 1;
          victim)
  | Slru m ->
      if List.mem key m.prob || List.mem key m.prot then begin
        (match pos with
        | Policy.Hot -> slru_promote m key
        | Policy.Cold ->
            if List.mem key m.prob then m.prob <- move_to_back key m.prob
            else begin
              m.prot <- remove_one key m.prot;
              m.prob <- push_back key m.prob
            end);
        None
      end
      else begin
        let victim = if full () then slru_evict m else None in
        (match pos with
        | Policy.Hot -> m.prob <- push_front key m.prob
        | Policy.Cold -> m.prob <- push_back key m.prob);
        victim
      end
  | Twoq m ->
      if List.mem key m.a1in then begin
        (match pos with
        | Policy.Hot -> ()
        | Policy.Cold -> m.a1in <- move_to_back key m.a1in);
        None
      end
      else if List.mem key m.am then begin
        (match pos with
        | Policy.Hot -> m.am <- move_to_front key m.am
        | Policy.Cold -> m.am <- move_to_back key m.am);
        None
      end
      else begin
        let victim = if full () then twoq_evict m else None in
        if List.mem key m.ghost_members && pos = Policy.Hot then begin
          (* remembered while ghosted: admit straight into the main queue
             (membership is forgotten; the FIFO slot is left behind,
             exactly like the optimized cache) *)
          m.ghost_members <- remove_one key m.ghost_members;
          m.am <- push_front key m.am
        end
        else begin
          match pos with
          | Policy.Hot -> m.a1in <- push_front key m.a1in
          | Policy.Cold -> m.a1in <- push_back key m.a1in
        end;
        victim
      end
  | Mq m -> (
      match mq_entry_of m key with
      | Some e ->
          (match pos with
          | Policy.Hot -> mq_promote m key
          | Policy.Cold ->
              m.mq_lists.(e.mqueue) <- remove_one key m.mq_lists.(e.mqueue);
              e.mqueue <- 0;
              e.mcount <- 0;
              m.mq_lists.(0) <- push_back key m.mq_lists.(0));
          None
      | None ->
          mq_tick m;
          let victim = if full () then mq_evict m else None in
          let remembered = Option.value ~default:0 (List.assoc_opt key m.mq_ghost) in
          let count = match pos with Policy.Hot -> remembered + 1 | Policy.Cold -> 0 in
          let queue = mq_queue_for m count in
          (match pos with
          | Policy.Hot -> m.mq_lists.(queue) <- push_front key m.mq_lists.(queue)
          | Policy.Cold -> m.mq_lists.(queue) <- push_back key m.mq_lists.(queue));
          m.mq_entries <-
            (key, { mcount = count; mqueue = queue; mexpire = m.mq_time + m.lifetime })
            :: m.mq_entries;
          victim)
  | Arc m -> (
      match arc_where_of m key with
      | Some (AT1 | AT2) ->
          (match pos with
          | Policy.Hot ->
              arc_detach m key;
              m.t2 <- push_front key m.t2
          | Policy.Cold ->
              arc_detach m key;
              m.t1 <- push_back key m.t1);
          None
      | Some ((AB1 | AB2) as ghost) -> (
          match pos with
          | Policy.Hot ->
              let b1_len = max 1 (List.length m.b1) in
              let b2_len = max 1 (List.length m.b2) in
              let hit_in_b2 = ghost = AB2 in
              if hit_in_b2 then m.p <- max 0 (m.p - max 1 (b1_len / b2_len))
              else m.p <- min t.capacity (m.p + max 1 (b2_len / b1_len));
              let victim =
                if arc_size m >= t.capacity then arc_replace t.capacity m ~hit_in_b2 else None
              in
              arc_detach m key;
              m.t2 <- push_front key m.t2;
              victim
          | Policy.Cold ->
              let victim =
                if arc_size m >= t.capacity then arc_replace t.capacity m ~hit_in_b2:false
                else None
              in
              arc_detach m key;
              m.t1 <- push_back key m.t1;
              victim)
      | None ->
          let l1 = List.length m.t1 + List.length m.b1 in
          let total =
            List.length m.t1 + List.length m.t2 + List.length m.b1 + List.length m.b2
          in
          let victim =
            if l1 >= t.capacity then
              if List.length m.t1 < t.capacity then begin
                arc_drop_ghost_lru m ~b1:true;
                arc_replace t.capacity m ~hit_in_b2:false
              end
              else begin
                match pop_back m.t1 with
                | Some v, rest ->
                    m.t1 <- rest;
                    Some v
                | None, _ -> None
              end
            else if total >= t.capacity then begin
              if total >= 2 * t.capacity then arc_drop_ghost_lru m ~b1:false;
              if arc_size m >= t.capacity then arc_replace t.capacity m ~hit_in_b2:false
              else None
            end
            else None
          in
          (match pos with
          | Policy.Hot -> m.t1 <- push_front key m.t1
          | Policy.Cold -> m.t1 <- push_back key m.t1);
          victim)
  | Random m ->
      if List.mem key m.keys then None
      else begin
        let n = List.length m.keys in
        let victim = if n >= t.capacity then Some (random_remove_at m (Prng.int m.prng n)) else None in
        m.keys <- m.keys @ [ key ];
        victim
      end

let unit_remove t key =
  match t.state with
  | Lru m | Mru m | Fifo m -> m.order <- remove_one key m.order
  | Lfu m -> m.entries <- List.remove_assoc key m.entries
  | Clock m ->
      Array.iter
        (fun s ->
          if s.occupied && s.ckey = key then begin
            s.occupied <- false;
            s.referenced <- false;
            m.csize <- m.csize - 1
          end)
        m.slots
  | Slru m ->
      m.prob <- remove_one key m.prob;
      m.prot <- remove_one key m.prot
  | Twoq m ->
      m.a1in <- remove_one key m.a1in;
      m.am <- remove_one key m.am
  | Mq m -> (
      match mq_entry_of m key with
      | Some e ->
          m.mq_lists.(e.mqueue) <- remove_one key m.mq_lists.(e.mqueue);
          m.mq_entries <- List.remove_assoc key m.mq_entries
      | None -> ())
  | Arc m -> arc_detach m key (* drops ghosts too, like the optimized cache *)
  | Random m -> (
      let rec index_of i = function
        | [] -> None
        | k :: _ when k = key -> Some i
        | _ :: rest -> index_of (i + 1) rest
      in
      match index_of 0 m.keys with Some i -> ignore (random_remove_at m i) | None -> ())

let unit_clear t =
  match t.state with
  | Lru m | Mru m | Fifo m -> m.order <- []
  | Lfu m ->
      m.entries <- [];
      m.lfu_clock <- 0
  | Clock m ->
      Array.iter
        (fun s ->
          s.occupied <- false;
          s.referenced <- false)
        m.slots;
      m.hand <- 0;
      m.csize <- 0
  | Slru m ->
      m.prob <- [];
      m.prot <- []
  | Twoq m ->
      m.a1in <- [];
      m.am <- [];
      m.ghost_members <- [];
      m.ghost_fifo <- []
  | Mq m ->
      Array.fill m.mq_lists 0 (Array.length m.mq_lists) [];
      m.mq_entries <- [];
      m.mq_ghost <- [];
      m.mq_ghost_fifo <- [];
      m.mq_time <- 0
  | Arc m ->
      m.t1 <- [];
      m.t2 <- [];
      m.b1 <- [];
      m.b2 <- [];
      m.p <- 0
  | Random m -> m.keys <- [] (* the PRNG stream continues, like the optimized cache *)

(* --- the weighted surface ------------------------------------------------
   Restates [Policy.Weighted_of_unit] over the unit models above: the
   all-unit fast path delegates to the model's native insert, the general
   path pre-evicts via [unit_evict], oversize keys bypass the cache. *)

let size_of t key = Option.value ~default:1 (List.assoc_opt key t.wsizes)

let note_drop t key =
  let s = size_of t key in
  t.wused <- t.wused - s;
  if s <> 1 then begin
    t.wsizes <- List.remove_assoc key t.wsizes;
    t.wnonunit <- t.wnonunit - 1
  end

let used t = t.wused
let charge _ _ ~cost:_ = ()

let evict t =
  match unit_evict t with
  | Some victim ->
      note_drop t victim;
      victim
  | None -> -1

let insert t ~pos ~weight:w key =
  Policy.check_weight ~who:("model." ^ Cache.kind_name t.kind) w;
  if mem t key then begin
    ignore (unit_insert t ~pos key);
    []
  end
  else if w.Policy.size > t.capacity then []
  else if t.wnonunit = 0 && w.Policy.size = 1 then begin
    match unit_insert t ~pos key with
    | Some victim -> [ victim ]
    | None ->
        t.wused <- t.wused + 1;
        []
  end
  else begin
    let victims = ref [] in
    while t.wused + w.Policy.size > t.capacity do
      match unit_evict t with
      | Some v ->
          note_drop t v;
          victims := v :: !victims
      | None -> assert false
    done;
    (* ghost-bearing kinds (ARC) may shed a resident under directory
       pressure even with room by count; mirror the wrapper and account
       any victim the unit insert produces on its own *)
    (match unit_insert t ~pos key with
    | Some v ->
        note_drop t v;
        victims := v :: !victims
    | None -> ());
    t.wused <- t.wused + w.Policy.size;
    if w.Policy.size <> 1 then begin
      t.wsizes <- (key, w.Policy.size) :: t.wsizes;
      t.wnonunit <- t.wnonunit + 1
    end;
    List.rev !victims
  end

let remove t key =
  if mem t key then note_drop t key;
  unit_remove t key

let clear t =
  unit_clear t;
  t.wsizes <- [];
  t.wnonunit <- 0;
  t.wused <- 0

(* --- weighted reference policies -----------------------------------------

   List-based restatements of the rent-based baselines in lib/baselines,
   implementing the same [Policy.S] so the diff engine can pair each
   optimized policy with its model through the generic driver. Victim
   selection is canonical: scan the recency order hot end first and keep
   the entry with the smallest priority, ties resolved towards the cold
   end ([<=] while scanning). The optimized Landlord and its model round
   each priority once, in the same expression, so priorities compare
   exactly. *)

(* Landlord as Young states it: credits drained by rent on every
   eviction. Only the Landlord ≡ GreedyDual-Size witness uses it. *)
module Landlord_drain = struct
  type entry = { lsize : int; mutable lcredit : float }

  type t = {
    lcap : int;
    mutable lents : (int * entry) list; (* recency order, hot end first *)
    mutable lused : int;
  }

  let policy_name = "landlord-drain"

  let create ~capacity =
    if capacity <= 0 then
      invalid_arg "Model_cache.Landlord_drain.create: capacity must be positive";
    { lcap = capacity; lents = []; lused = 0 }

  let capacity t = t.lcap
  let size t = List.length t.lents
  let used t = t.lused
  let mem t key = List.mem_assoc key t.lents
  let contents t = List.map fst t.lents

  let reposition t ~pos key =
    match List.assoc_opt key t.lents with
    | None -> ()
    | Some e -> (
        let rest = List.remove_assoc key t.lents in
        match pos with
        | Policy.Hot -> t.lents <- (key, e) :: rest
        | Policy.Cold -> t.lents <- rest @ [ (key, e) ])

  let promote t key = if mem t key then reposition t ~pos:Policy.Hot key

  let charge t key ~cost =
    if cost <= 0 then invalid_arg "Model_cache.Landlord_drain.charge: cost must be positive";
    match List.assoc_opt key t.lents with
    | Some e -> e.lcredit <- float_of_int cost
    | None -> ()

  (* The victim is the resident with the smallest credit/size rent ratio,
     ties towards the cold end; every other resident then pays rent
     [ratio * size] (Landlord's delta step) and the victim leaves with
     exactly zero credit. *)
  let evict t =
    match t.lents with
    | [] -> -1
    | (k0, e0) :: rest ->
        let ratio e = e.lcredit /. float_of_int e.lsize in
        let victim, _ =
          List.fold_left
            (fun (bk, br) (k, e) ->
              let r = ratio e in
              if r <= br then (k, r) else (bk, br))
            (k0, ratio e0) rest
        in
        let delta = ratio (List.assoc victim t.lents) in
        List.iter
          (fun (k, e) ->
            if k <> victim then e.lcredit <- e.lcredit -. (delta *. float_of_int e.lsize))
          t.lents;
        let e = List.assoc victim t.lents in
        t.lents <- List.remove_assoc victim t.lents;
        t.lused <- t.lused - e.lsize;
        victim

  let insert t ~pos ~weight:w key =
    Policy.check_weight ~who:"model.landlord-drain" w;
    if mem t key then begin
      reposition t ~pos key;
      []
    end
    else if w.Policy.size > t.lcap then []
    else begin
      let victims = ref [] in
      while t.lused + w.Policy.size > t.lcap do
        let v = evict t in
        assert (v >= 0);
        victims := v :: !victims
      done;
      let e = { lsize = w.Policy.size; lcredit = float_of_int w.Policy.cost } in
      (match pos with
      | Policy.Hot -> t.lents <- (key, e) :: t.lents
      | Policy.Cold -> t.lents <- t.lents @ [ (key, e) ]);
      t.lused <- t.lused + w.Policy.size;
      List.rev !victims
    end

  let remove t key =
    match List.assoc_opt key t.lents with
    | Some e ->
        t.lents <- List.remove_assoc key t.lents;
        t.lused <- t.lused - e.lsize
    | None -> ()

  let clear t =
    t.lents <- [];
    t.lused <- 0
end

(* Landlord in its GreedyDual-Size form: priority [H = L + cost/size]
   assigned on insertion and on [charge]; the victim is the minimal-[H]
   resident and the inflation floor [L] rises to the victim's priority. *)
module Landlord = struct
  type entry = { gsize : int; mutable h : float }

  type t = {
    gcap : int;
    mutable inflation : float; (* L, the non-decreasing eviction floor *)
    mutable gents : (int * entry) list; (* recency order, hot end first *)
    mutable gused : int;
  }

  let policy_name = "landlord"

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Model_cache.Landlord.create: capacity must be positive";
    { gcap = capacity; inflation = 0.0; gents = []; gused = 0 }

  let capacity t = t.gcap
  let size t = List.length t.gents
  let used t = t.gused
  let mem t key = List.mem_assoc key t.gents
  let contents t = List.map fst t.gents

  let reposition t ~pos key =
    match List.assoc_opt key t.gents with
    | None -> ()
    | Some e -> (
        let rest = List.remove_assoc key t.gents in
        match pos with
        | Policy.Hot -> t.gents <- (key, e) :: rest
        | Policy.Cold -> t.gents <- rest @ [ (key, e) ])

  let promote t key = if mem t key then reposition t ~pos:Policy.Hot key

  let priority t ~size ~cost = t.inflation +. (float_of_int cost /. float_of_int size)

  let charge t key ~cost =
    if cost <= 0 then invalid_arg "Model_cache.Landlord.charge: cost must be positive";
    match List.assoc_opt key t.gents with
    | Some e -> e.h <- priority t ~size:e.gsize ~cost
    | None -> ()

  let evict t =
    match t.gents with
    | [] -> -1
    | (k0, e0) :: rest ->
        let victim, victim_h =
          List.fold_left
            (fun (bk, bh) (k, e) -> if e.h <= bh then (k, e.h) else (bk, bh))
            (k0, e0.h) rest
        in
        let e = List.assoc victim t.gents in
        t.gents <- List.remove_assoc victim t.gents;
        t.gused <- t.gused - e.gsize;
        t.inflation <- victim_h;
        victim

  let insert t ~pos ~weight:w key =
    Policy.check_weight ~who:"model.landlord" w;
    if mem t key then begin
      reposition t ~pos key;
      []
    end
    else if w.Policy.size > t.gcap then []
    else begin
      let victims = ref [] in
      while t.gused + w.Policy.size > t.gcap do
        let v = evict t in
        assert (v >= 0);
        victims := v :: !victims
      done;
      let e = { gsize = w.Policy.size; h = priority t ~size:w.Policy.size ~cost:w.Policy.cost } in
      (match pos with
      | Policy.Hot -> t.gents <- (key, e) :: t.gents
      | Policy.Cold -> t.gents <- t.gents @ [ (key, e) ]);
      t.gused <- t.gused + w.Policy.size;
      List.rev !victims
    end

  let remove t key =
    match List.assoc_opt key t.gents with
    | Some e ->
        t.gents <- List.remove_assoc key t.gents;
        t.gused <- t.gused - e.gsize
    | None -> ()

  let clear t =
    t.gents <- [];
    t.gused <- 0;
    t.inflation <- 0.0

  let request_bundle t ~weight_of keys =
    let members = List.fold_left (fun acc k -> if List.mem k acc then acc else k :: acc) [] keys in
    List.concat_map
      (fun k ->
        if mem t k then begin
          promote t k;
          charge t k ~cost:(weight_of k).Policy.cost;
          []
        end
        else insert t ~pos:Policy.Hot ~weight:(weight_of k) k)
      (List.rev members)
end

module Bundle = struct
  include Landlord

  let policy_name = "bundle"

  let insert t ~pos ~weight:w key =
    Policy.check_weight ~who:"model.bundle" w;
    insert t ~pos ~weight:w key
end
