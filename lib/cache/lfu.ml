open Agg_util

module Core = struct
  (* O(1) LFU (Shah, Mitra & Matani 2010) in one arena. [items] holds
     every resident in ascending (count, tick) order: a key always enters
     its count's run at the tail with the newest tick, so each run is
     oldest first and the front of [items] is the victim. [buckets] holds
     one node per count value present, ascending, its key the count; a
     bucket node is freed as soon as its run empties, so the arena never
     holds more buckets than residents. Side arrays indexed by node link
     an item to its bucket and a bucket to the tail item of its run. *)

  module A = Dlist_arena

  type t = {
    capacity : int;
    arena : A.t;
    items : A.list_; (* residents, ascending (count, tick) *)
    buckets : A.list_; (* distinct counts, ascending *)
    index : Int_table.t; (* key -> item node *)
    mutable bucket : int array; (* item node -> its bucket node *)
    mutable tail : int array; (* bucket node -> last item of its run *)
    mutable size : int;
  }

  let policy_name = "lfu"

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Lfu.create: capacity must be positive";
    let arena = A.create ~capacity:(capacity + 3) () in
    let items = A.new_list arena in
    let buckets = A.new_list arena in
    {
      capacity;
      arena;
      items;
      buckets;
      index = Int_table.create ~capacity:(2 * capacity) ();
      bucket = Array.make (A.slots arena) A.nil;
      tail = Array.make (A.slots arena) A.nil;
      size = 0;
    }

  let capacity t = t.capacity
  let size t = t.size
  let mem t key = Int_table.mem t.index key

  (* The arena grows by doubling; keep the side arrays covering it. *)
  let ensure t n =
    if n >= Array.length t.bucket then begin
      let grow a =
        let b = Array.make (A.slots t.arena) A.nil in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      t.bucket <- grow t.bucket;
      t.tail <- grow t.tail
    end

  let count t b = A.key t.arena b

  (* The bucket of count [c], which directly follows bucket [pb] ([A.nil]:
     the front) — created with an empty run when absent. *)
  let bucket_after t pb c =
    let nb = if pb = A.nil then A.first t.arena t.buckets else A.next t.arena t.buckets pb in
    if nb <> A.nil && count t nb = c then nb
    else begin
      let b = if pb = A.nil then A.push_front t.arena t.buckets c else A.push_after t.arena pb c in
      ensure t b;
      t.tail.(b) <- A.nil;
      b
    end

  (* Where a key entering bucket [b] is linked: after its run's tail, or
     when the run is empty after the preceding run's tail ([A.nil]: the
     front of [items]). *)
  let anchor t b =
    if t.tail.(b) <> A.nil then t.tail.(b)
    else
      let pb = A.prev t.arena t.buckets b in
      if pb = A.nil then A.nil else t.tail.(pb)

  (* Unhooks item [x] from its run's bookkeeping, freeing the bucket when
     [x] was its only item; [x] itself stays linked in [items]. *)
  let leave t x =
    let b = t.bucket.(x) in
    if t.tail.(b) = x then begin
      let p = A.prev t.arena t.items x in
      if p <> A.nil && t.bucket.(p) = b then t.tail.(b) <- p else A.remove t.arena b
    end

  (* Moves resident [x], already unhooked, to the tail of bucket [b]. *)
  let enter t x b =
    let a = anchor t b in
    if a = A.nil then A.move_to_front t.arena t.items x else A.move_after t.arena x ~anchor:a;
    t.bucket.(x) <- b;
    t.tail.(b) <- x

  (* One more access: the tail of the next count's run. The target bucket
     is found before [leave] can free the current one. *)
  let bump t x =
    let b = t.bucket.(x) in
    let nb = bucket_after t b (count t b + 1) in
    leave t x;
    enter t x nb

  (* A cold reposition: back to count zero, at the tail of its run. *)
  let reset t x =
    let b = t.bucket.(x) in
    if count t b = 0 then begin
      if t.tail.(b) <> x then begin
        A.move_after t.arena x ~anchor:t.tail.(b);
        t.tail.(b) <- x
      end
    end
    else begin
      let z = bucket_after t A.nil 0 in
      leave t x;
      enter t x z
    end

  let promote t key =
    let x = Int_table.get t.index key in
    if x >= 0 then bump t x

  let drop t x =
    leave t x;
    Int_table.remove t.index (A.key t.arena x);
    A.remove t.arena x;
    t.size <- t.size - 1

  let evict t =
    let x = A.first t.arena t.items in
    if x = A.nil then None
    else begin
      let key = A.key t.arena x in
      drop t x;
      Some key
    end

  (* A new key enters at count [c] (0 cold, 1 hot); bucket 1 follows
     bucket 0 when that exists. *)
  let add t key c =
    let pb =
      let f = A.first t.arena t.buckets in
      if c = 1 && f <> A.nil && count t f = 0 then f else A.nil
    in
    let b = bucket_after t pb c in
    let a = anchor t b in
    let x = if a = A.nil then A.push_front t.arena t.items key else A.push_after t.arena a key in
    ensure t x;
    t.bucket.(x) <- b;
    t.tail.(b) <- x;
    Int_table.set t.index key x;
    t.size <- t.size + 1

  let insert t ~pos key =
    let x = Int_table.get t.index key in
    if x >= 0 then begin
      (* Repositioning a resident key: [Cold] demotes it to frequency
         zero, [Hot] counts as an access. *)
      (match pos with Policy.Hot -> bump t x | Policy.Cold -> reset t x);
      None
    end
    else begin
      let victim = if t.size >= t.capacity then evict t else None in
      add t key (match pos with Policy.Hot -> 1 | Policy.Cold -> 0);
      victim
    end

  let remove t key =
    let x = Int_table.get t.index key in
    if x >= 0 then drop t x

  (* Descending (count, tick): [items] read back to front. *)
  let contents t = List.rev (A.to_list t.arena t.items)

  let clear t =
    A.clear_list t.arena t.items;
    A.clear_list t.arena t.buckets;
    Int_table.clear t.index;
    t.size <- 0

  let frequency t key =
    let x = Int_table.get t.index key in
    if x < 0 then None else Some (count t t.bucket.(x))
end

include Policy.Weighted_of_unit (Core)

let frequency t key = Core.frequency (core t) key
