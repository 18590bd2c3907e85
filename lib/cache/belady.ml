type result = { accesses : int; hits : int; misses : int }

module Next_use = Set.Make (struct
  type t = int * int (* (next use position, key); never = max_int *)

  let compare = compare
end)

let simulate ~capacity trace =
  if capacity <= 0 then invalid_arg "Belady.simulate: capacity must be positive";
  let n = Array.length trace in
  (* next.(i) is the position of the next access to trace.(i) after i, or
     max_int when there is none; computed by a backwards scan. *)
  let next = Array.make n max_int in
  let last_seen = Hashtbl.create 1024 in
  for i = n - 1 downto 0 do
    let key = trace.(i) in
    (match Hashtbl.find_opt last_seen key with
    | Some j -> next.(i) <- j
    | None -> next.(i) <- max_int);
    Hashtbl.replace last_seen key i
  done;
  let resident = Hashtbl.create (2 * capacity) in
  (* key -> its current (next use) entry in the eviction order *)
  let order = ref Next_use.empty in
  let hits = ref 0 in
  let misses = ref 0 in
  for i = 0 to n - 1 do
    let key = trace.(i) in
    let upcoming = next.(i) in
    (match Hashtbl.find_opt resident key with
    | Some current ->
        incr hits;
        order := Next_use.remove (current, key) !order
    | None ->
        incr misses;
        if Hashtbl.length resident >= capacity then begin
          (* Evict the key used furthest in the future. *)
          match Next_use.max_elt_opt !order with
          | Some ((_, victim) as entry) ->
              order := Next_use.remove entry !order;
              Hashtbl.remove resident victim
          | None -> assert false (* resident non-empty implies non-empty order *)
        end);
    Hashtbl.replace resident key upcoming;
    order := Next_use.add (upcoming, key) !order
  done;
  { accesses = n; hits = !hits; misses = !misses }
