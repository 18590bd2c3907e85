type t = {
  client_memory : float;
  network_rtt : float;
  transfer_per_file : float;
  server_memory : float;
  server_disk : float;
}

let lan =
  {
    client_memory = 0.05;
    network_rtt = 0.5;
    transfer_per_file = 0.2;
    server_memory = 0.05;
    server_disk = 8.0;
  }

let wan = { lan with network_rtt = 40.0 }

let demand_fetch_latency t ~served_from_disk =
  t.network_rtt +. (if served_from_disk then t.server_disk else t.server_memory)
  +. t.transfer_per_file
