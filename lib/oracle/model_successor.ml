module Successor_list = Agg_successor.Successor_list

(* [Recency] is the list itself, most recent first. [Frequency] keeps full
   (count, tick) bookkeeping for every successor ever seen and a separate
   member list of the current top-k; a newcomer enters only by beating the
   weakest member on (count, tick) — restating the optimized cache's
   idealised frequency policy. Ticks are unique, so every comparison is a
   total order and the model is deterministic. *)

type freq_entry = { mutable count : int; mutable tick : int }

type t = {
  capacity : int;
  policy : Successor_list.policy;
  mutable recency : int list; (* most recent first *)
  mutable counts : (int * freq_entry) list; (* every successor ever observed *)
  mutable members : int list; (* the current top-k, unordered *)
  mutable clock : int;
}

let create ~capacity ~policy =
  if capacity <= 0 then invalid_arg "Model_successor.create: capacity must be positive";
  { capacity; policy; recency = []; counts = []; members = []; clock = 0 }


let size t =
  match t.policy with
  | Successor_list.Recency -> List.length t.recency
  | Successor_list.Frequency -> List.length t.members

let mem t succ =
  match t.policy with
  | Successor_list.Recency -> List.mem succ t.recency
  | Successor_list.Frequency -> List.mem succ t.members

let observe_recency t succ =
  if List.mem succ t.recency then t.recency <- succ :: List.filter (fun s -> s <> succ) t.recency
  else begin
    if List.length t.recency >= t.capacity then
      t.recency <- (match List.rev t.recency with _ :: rest -> List.rev rest | [] -> []);
    t.recency <- succ :: t.recency
  end

let entry_of t succ = List.assoc_opt succ t.counts

(* The member a newcomer must beat: smallest (count, tick). *)
let weakest_member t =
  List.fold_left
    (fun acc key ->
      let e = List.assoc key t.counts in
      match acc with
      | None -> Some (key, e)
      | Some (_, best) ->
          if e.count < best.count || (e.count = best.count && e.tick < best.tick) then Some (key, e)
          else acc)
    None t.members

let observe_frequency t succ =
  t.clock <- t.clock + 1;
  let entry =
    match entry_of t succ with
    | Some e ->
        e.count <- e.count + 1;
        e.tick <- t.clock;
        e
    | None ->
        let e = { count = 1; tick = t.clock } in
        t.counts <- (succ, e) :: t.counts;
        e
  in
  if not (List.mem succ t.members) then
    if List.length t.members < t.capacity then t.members <- succ :: t.members
    else
      match weakest_member t with
      | Some (victim, weakest)
        when entry.count > weakest.count
             || (entry.count = weakest.count && entry.tick > weakest.tick) ->
          t.members <- succ :: List.filter (fun s -> s <> victim) t.members
      | Some _ | None -> ()

let observe t succ =
  match t.policy with
  | Successor_list.Recency -> observe_recency t succ
  | Successor_list.Frequency -> observe_frequency t succ

let ranked t =
  match t.policy with
  | Successor_list.Recency -> t.recency
  | Successor_list.Frequency ->
      let cmp a b =
        let ea = List.assoc a t.counts and eb = List.assoc b t.counts in
        match compare eb.count ea.count with 0 -> compare eb.tick ea.tick | c -> c
      in
      List.sort cmp t.members

let top t = match ranked t with [] -> None | s :: _ -> Some s

module Oracle = struct
  type t = { mutable pairs : (int * int) list }

  let create () = { pairs = [] }

  let mem t ~file ~successor = List.mem (file, successor) t.pairs

  let observe t ~file ~successor =
    if not (mem t ~file ~successor) then t.pairs <- (file, successor) :: t.pairs
end
