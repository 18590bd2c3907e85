type insert_position = Hot | Cold

type weight = { size : int; cost : int }

let unit_weight = { size = 1; cost = 1 }
let is_unit w = w.size = 1 && w.cost = 1

let check_weight ~who w =
  if w.size <= 0 then
    invalid_arg (Printf.sprintf "%s: weight size must be positive (got %d)" who w.size);
  if w.cost <= 0 then
    invalid_arg (Printf.sprintf "%s: weight cost must be positive (got %d)" who w.cost)

let drop_victim (_ : int) = ()
let presize capacity = Int.min capacity 512

module type OPS = sig
  type 'c lifted

  val capacity : 'c lifted -> int
  val size : 'c lifted -> int
  val used : 'c lifted -> int
  val mem : 'c lifted -> int -> bool
  val hit : 'c lifted -> int -> cost:int -> bool
  val promote : 'c lifted -> int -> unit
  val insert : 'c lifted -> pos:insert_position -> weight:weight -> int -> int
  val admit : 'c lifted -> pos:insert_position -> weight:weight -> int -> int
  val set_sink : 'c lifted -> (int -> unit) -> unit
  val charge : 'c lifted -> int -> cost:int -> unit
  val evict : 'c lifted -> int
  val remove : 'c lifted -> int -> unit
  val contents : 'c lifted -> int list
  val clear : 'c lifted -> unit
end

module type S = sig
  type t

  val policy_name : string
  val create : capacity:int -> t

  include OPS with type 'c lifted := t
end

module type UNIT = sig
  type t

  val policy_name : string
  val create : capacity:int -> t
  val capacity : t -> int
  val size : t -> int
  val mem : t -> int -> bool
  val hit : t -> int -> bool
  val demote : t -> int -> bool
  val admit : t -> pos:insert_position -> int -> int
  val evict : t -> int
  val remove : t -> int -> bool
  val contents : t -> int list
  val clear : t -> unit
end
