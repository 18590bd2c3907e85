type t = {
  slots : (int, int) Hashtbl.t; (* slot -> file *)
  replicas : (int, int list) Hashtbl.t; (* file -> slots *)
  mutable high_water : int; (* one past the highest occupied slot *)
}

let create () = { slots = Hashtbl.create 4096; replicas = Hashtbl.create 4096; high_water = 0 }

let place t file ~slot =
  if slot < 0 then invalid_arg "Disk.place: negative slot";
  if Hashtbl.mem t.slots slot then invalid_arg "Disk.place: slot already occupied";
  Hashtbl.replace t.slots slot file;
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.replicas file) in
  Hashtbl.replace t.replicas file (slot :: existing);
  if slot >= t.high_water then t.high_water <- slot + 1

let slots_of t file = Option.value ~default:[] (Hashtbl.find_opt t.replicas file)
let next_free_slot t = t.high_water
let placed_files t = Hashtbl.length t.replicas
let occupied_slots t = Hashtbl.length t.slots

type replay_stats = {
  accesses : int;
  total_seek : float;
  mean_seek : float;
  max_seek : int;
  allocated_on_the_fly : int;
}

let nearest head slots =
  List.fold_left
    (fun best slot ->
      match best with
      | None -> Some slot
      | Some b -> if abs (slot - head) < abs (b - head) then Some slot else best)
    None slots

let replay t files =
  let head = ref 0 in
  let total = ref 0.0 in
  let max_seek = ref 0 in
  let allocated = ref 0 in
  Array.iter
    (fun file ->
      let slot =
        match nearest !head (slots_of t file) with
        | Some slot -> slot
        | None ->
            (* cold file: allocate at the end of the device *)
            let slot = next_free_slot t in
            place t file ~slot;
            incr allocated;
            slot
      in
      let distance = abs (slot - !head) in
      total := !total +. float_of_int distance;
      if distance > !max_seek then max_seek := distance;
      head := slot)
    files;
  let n = Array.length files in
  {
    accesses = n;
    total_seek = !total;
    mean_seek = (if n = 0 then 0.0 else !total /. float_of_int n);
    max_seek = !max_seek;
    allocated_on_the_fly = !allocated;
  }
