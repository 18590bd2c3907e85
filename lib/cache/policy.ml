type insert_position = Hot | Cold

type weight = { size : int; cost : int }

let unit_weight = { size = 1; cost = 1 }
let is_unit w = w.size = 1 && w.cost = 1

let check_weight ~who w =
  if w.size <= 0 then
    invalid_arg (Printf.sprintf "%s: weight size must be positive (got %d)" who w.size);
  if w.cost <= 0 then
    invalid_arg (Printf.sprintf "%s: weight cost must be positive (got %d)" who w.cost)

let pp_weight ppf w = Format.fprintf ppf "{size=%d; cost=%d}" w.size w.cost

module type S = sig
  type t

  val policy_name : string
  val create : capacity:int -> t
  val capacity : t -> int
  val size : t -> int
  val used : t -> int
  val mem : t -> int -> bool
  val promote : t -> int -> unit
  val insert : t -> pos:insert_position -> weight:weight -> int -> int list
  val charge : t -> int -> cost:int -> unit
  val evict : t -> int
  val remove : t -> int -> unit
  val contents : t -> int list
  val clear : t -> unit
end

module type UNIT = sig
  type t

  val policy_name : string
  val create : capacity:int -> t
  val capacity : t -> int
  val size : t -> int
  val mem : t -> int -> bool
  val promote : t -> int -> unit
  val insert : t -> pos:insert_position -> int -> int
  val evict : t -> int
  val remove : t -> int -> unit
  val contents : t -> int list
  val clear : t -> unit
end

module Weighted_of_unit (Core : UNIT) = struct
  (* Sizes are tracked beside the core: only non-unit entries are stored,
     so while every resident has size 1 the side table stays empty and
     [used] mirrors the core's count exactly. *)
  type t = {
    core : Core.t;
    sizes : Agg_util.Int_table.t; (* key -> size, non-unit entries only *)
    mutable nonunit : int; (* residents whose size is not 1 *)
    mutable used : int; (* total resident size *)
  }

  let policy_name = Core.policy_name

  let of_core core =
    { core; sizes = Agg_util.Int_table.create (); nonunit = 0; used = Core.size core }

  let core t = t.core
  let create ~capacity = of_core (Core.create ~capacity)
  let capacity t = Core.capacity t.core
  let size t = Core.size t.core
  let used t = t.used
  let mem t key = Core.mem t.core key
  let promote t key = Core.promote t.core key
  let charge _ _ ~cost:_ = ()

  let size_of t key =
    let s = Agg_util.Int_table.get t.sizes key in
    if s < 0 then 1 else s

  let note_drop t key =
    let s = size_of t key in
    t.used <- t.used - s;
    if s <> 1 then begin
      Agg_util.Int_table.remove t.sizes key;
      t.nonunit <- t.nonunit - 1
    end

  let evict t =
    let victim = Core.evict t.core in
    if victim >= 0 then note_drop t victim;
    victim

  let remove t key =
    if Core.mem t.core key then note_drop t key;
    (* always delegate: cores with ghost state forget ghosts on remove *)
    Core.remove t.core key

  let insert t ~pos ~weight:w key =
    check_weight ~who:Core.policy_name w;
    if Core.mem t.core key then begin
      (* reposition only; the key keeps the size it was admitted with *)
      ignore (Core.insert t.core ~pos key);
      []
    end
    else if w.size > Core.capacity t.core then
      (* larger than the whole cache: bypass, evicting nothing *)
      []
    else if t.nonunit = 0 && w.size = 1 then begin
      (* all-unit fast path: the core's native insert picks the single
         victim exactly as the unweighted policy did *)
      let victim = Core.insert t.core ~pos key in
      if victim >= 0 then [ victim ] (* unit out, unit in: [used] unchanged *)
      else begin
        t.used <- t.used + 1;
        []
      end
    end
    else begin
      let victims = ref [] in
      while t.used + w.size > Core.capacity t.core do
        let v = Core.evict t.core in
        assert (v >= 0) (* used > 0 implies a resident victim *);
        note_drop t v;
        victims := v :: !victims
      done;
      (* sizes are >= 1, so count <= used <= capacity - w.size < capacity and
         the core sees room by resident count — but ghost-bearing cores (ARC)
         may still shed a resident under directory pressure, so any victim it
         returns is a real eviction and must be accounted *)
      let v = Core.insert t.core ~pos key in
      if v >= 0 then begin
        note_drop t v;
        victims := v :: !victims
      end;
      t.used <- t.used + w.size;
      if w.size <> 1 then begin
        Agg_util.Int_table.set t.sizes key w.size;
        t.nonunit <- t.nonunit + 1
      end;
      List.rev !victims
    end

  let contents t = Core.contents t.core

  let clear t =
    Core.clear t.core;
    Agg_util.Int_table.clear t.sizes;
    t.nonunit <- 0;
    t.used <- 0
end
