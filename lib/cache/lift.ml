open Agg_util

type 'c t = {
  core : 'c;
  ops : (module Policy.UNIT with type t = 'c);
  capacity : int;
  sizes : Int_table.t; (* key -> size, non-unit residents only *)
  mutable nonunit : int; (* residents whose size is not 1 *)
  mutable used : int; (* total resident size *)
  mutable sink : int -> unit;
}

let make (type c) (module C : Policy.UNIT with type t = c) (core : c) =
  {
    core;
    ops = (module C);
    capacity = C.capacity core;
    sizes = Int_table.create ();
    nonunit = 0;
    used = C.size core;
    sink = Policy.drop_victim;
  }

let core t = t.core
let capacity t = t.capacity
let used t = t.used
let set_sink t f = t.sink <- f
let charge _ _ ~cost:_ = ()

let size (type c) (t : c t) =
  let (module C) = t.ops in
  C.size t.core

let mem (type c) (t : c t) key =
  let (module C) = t.ops in
  C.mem t.core key

let hit (type c) (t : c t) key ~cost:_ =
  let (module C) = t.ops in
  C.hit t.core key

let promote t key = ignore (hit t key ~cost:1)

let contents (type c) (t : c t) =
  let (module C) = t.ops in
  C.contents t.core

(* Forgets a departed resident's size. The table is read only while some
   non-unit size is resident. *)
let drop t key =
  if t.nonunit = 0 then t.used <- t.used - 1
  else begin
    let s = Int_table.get t.sizes key in
    if s < 0 then t.used <- t.used - 1
    else begin
      t.used <- t.used - s;
      Int_table.remove t.sizes key;
      t.nonunit <- t.nonunit - 1
    end
  end

let evict (type c) (t : c t) =
  let (module C) = t.ops in
  let victim = C.evict t.core in
  if victim >= 0 then drop t victim;
  victim

let remove (type c) (t : c t) key =
  let (module C) = t.ops in
  if C.remove t.core key then drop t key

let bad_weight (type c) (t : c t) w =
  let (module C) = t.ops in
  Policy.check_weight ~who:C.policy_name w

(* [admit] once the weight is checked. *)
let admit_checked (type c) (t : c t) ~pos ~(weight : Policy.weight) key =
  let (module C) = t.ops in
  if weight.size > t.capacity then (* larger than the whole cache: bypass *) 0
  else if weight.size = 1 && t.nonunit = 0 then begin
    (* all-unit: the core's own admission picks the single victim exactly
       as the unweighted policy did; unit out, unit in leaves [used] *)
    let victim = C.admit t.core ~pos key in
    if victim >= 0 then begin
      t.sink victim;
      1
    end
    else begin
      t.used <- t.used + 1;
      0
    end
  end
  else begin
    let evicted = ref 0 in
    while weight.size > t.capacity - t.used do
      let victim = C.evict t.core in
      assert (victim >= 0) (* used > 0 implies a resident victim *);
      drop t victim;
      t.sink victim;
      incr evicted
    done;
    (* sizes are >= 1, so the core sees room by resident count — but a
       ghost-bearing core (ARC) may still shed a resident under directory
       pressure, and that victim is a real eviction *)
    let victim = C.admit t.core ~pos key in
    if victim >= 0 then begin
      drop t victim;
      t.sink victim;
      incr evicted
    end;
    t.used <- t.used + weight.size;
    if weight.size <> 1 then begin
      Int_table.set t.sizes key weight.size;
      t.nonunit <- t.nonunit + 1
    end;
    !evicted
  end

let admit t ~pos ~(weight : Policy.weight) key =
  if weight.size <= 0 || weight.cost <= 0 then bad_weight t weight;
  admit_checked t ~pos ~weight key

let insert (type c) (t : c t) ~pos ~(weight : Policy.weight) key =
  if weight.size <= 0 || weight.cost <= 0 then bad_weight t weight;
  let (module C) = t.ops in
  let resident =
    match pos with Policy.Hot -> C.hit t.core key | Policy.Cold -> C.demote t.core key
  in
  (* a resident key is only repositioned and keeps its admitted size *)
  if resident then 0 else admit_checked t ~pos ~weight key

let clear (type c) (t : c t) =
  let (module C) = t.ops in
  C.clear t.core;
  Int_table.clear t.sizes;
  t.nonunit <- 0;
  t.used <- 0
