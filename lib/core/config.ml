open Sdx_net
open Sdx_bgp

type t = {
  participants : Participant.t list;
  by_asn : (Asn.t, Participant.t) Hashtbl.t;
  server : Route_server.t;
  (* (asn, local index) -> fabric port number, and its inverses *)
  port_numbers : (Asn.t * int, int) Hashtbl.t;
  port_owners : (int, Participant.t * Participant.port) Hashtbl.t;
  by_next_hop : (Ipv4.t, Participant.t * Participant.port * int) Hashtbl.t;
  port_count : int;
}

(* Policies are validated up front so a bad reference fails with a clear
   message at configuration time, not deep inside compilation. *)
let validate_policies by_asn (p : Participant.t) =
  let where direction i = Printf.sprintf "%s %s clause %d" (Asn.to_string p.asn) direction i in
  let check_exists ctx asn =
    match Hashtbl.find_opt by_asn asn with
    | Some (target : Participant.t) -> target
    | None ->
        invalid_arg
          (Printf.sprintf "Config.make: %s targets unknown participant %s" ctx
             (Asn.to_string asn))
  in
  let check_clause direction i (c : Ppolicy.clause) =
    let ctx = where direction i in
    match c.target with
    | Ppolicy.Peer asn ->
        if direction = "inbound" then
          invalid_arg
            (Printf.sprintf "Config.make: %s forwards to a peer (inbound policies may only use own ports, steering, default, or drop)" ctx);
        ignore (check_exists ctx asn)
    | Ppolicy.Redirect asn ->
        let target = check_exists ctx asn in
        if Participant.is_remote target then
          invalid_arg
            (Printf.sprintf "Config.make: %s steers to %s, which has no physical port"
               ctx (Asn.to_string asn))
    | Ppolicy.Phys k ->
        if k < 0 || k >= List.length p.ports then
          invalid_arg
            (Printf.sprintf "Config.make: %s forwards to nonexistent own port %d" ctx k)
    | Ppolicy.Default | Ppolicy.Drop -> ()
  in
  List.iteri (check_clause "outbound") p.outbound;
  List.iteri (check_clause "inbound") p.inbound

let make ?export participants =
  let by_asn = Hashtbl.create 64 in
  List.iter
    (fun (p : Participant.t) ->
      if Hashtbl.mem by_asn p.asn then
        invalid_arg
          (Printf.sprintf "Config.make: duplicate participant %s"
             (Asn.to_string p.asn));
      Hashtbl.replace by_asn p.asn p)
    participants;
  List.iter (validate_policies by_asn) participants;
  let port_numbers = Hashtbl.create 64 in
  let port_owners = Hashtbl.create 64 in
  let by_next_hop = Hashtbl.create 64 in
  let next = ref 1 in
  List.iter
    (fun (p : Participant.t) ->
      List.iter
        (fun (port : Participant.port) ->
          (match Mac_space.reserved port.mac with
          | Some block ->
              invalid_arg
                (Printf.sprintf "Config.make: %s port MAC %s lies in %s"
                   (Asn.to_string p.asn) (Mac.to_string port.mac) block)
          | None -> ());
          let n = !next in
          incr next;
          Hashtbl.replace port_numbers (p.asn, port.index) n;
          Hashtbl.replace port_owners n (p, port);
          if Hashtbl.mem by_next_hop port.ip then
            invalid_arg
              (Printf.sprintf "Config.make: duplicate port address %s"
                 (Ipv4.to_string port.ip));
          Hashtbl.replace by_next_hop port.ip (p, port, n))
        p.ports)
    participants;
  let server =
    Route_server.create ?export (List.map (fun (p : Participant.t) -> p.asn) participants)
  in
  {
    participants;
    by_asn;
    server;
    port_numbers;
    port_owners;
    by_next_hop;
    port_count = !next - 1;
  }

let participants t = t.participants
let server t = t.server

let with_policies t f =
  let participants =
    List.map
      (fun (p : Participant.t) ->
        let inbound, outbound = f p in
        { p with inbound; outbound })
      t.participants
  in
  let by_asn = Hashtbl.create 64 in
  List.iter (fun (p : Participant.t) -> Hashtbl.replace by_asn p.asn p) participants;
  List.iter (validate_policies by_asn) participants;
  let port_owners = Hashtbl.create 64 in
  let by_next_hop = Hashtbl.create 64 in
  List.iter
    (fun (p : Participant.t) ->
      List.iter
        (fun (port : Participant.port) ->
          let n = Hashtbl.find t.port_numbers (p.asn, port.index) in
          Hashtbl.replace port_owners n (p, port);
          Hashtbl.replace by_next_hop port.ip (p, port, n))
        p.ports)
    participants;
  { t with participants; by_asn; port_owners; by_next_hop }

let participant t asn =
  match Hashtbl.find_opt t.by_asn asn with
  | Some p -> p
  | None -> raise Not_found

let participant_opt t asn = Hashtbl.find_opt t.by_asn asn

let switch_port t asn index =
  match Hashtbl.find_opt t.port_numbers (asn, index) with
  | Some n -> n
  | None ->
      invalid_arg
        (Printf.sprintf "Config.switch_port: %s has no port %d"
           (Asn.to_string asn) index)

let switch_ports_of t asn =
  let p = participant t asn in
  List.map (fun (port : Participant.port) -> switch_port t asn port.index) p.ports

let owner_of_port t n =
  match Hashtbl.find_opt t.port_owners n with
  | Some x -> x
  | None -> raise Not_found

let port_of_next_hop t ip = Hashtbl.find_opt t.by_next_hop ip
let port_count t = t.port_count

let announce t ~peer ~port ?as_path prefix =
  let p = participant t peer in
  let port = Participant.port p port in
  let as_path = Option.value as_path ~default:[ peer ] in
  let route =
    Route.make ~prefix ~next_hop:port.ip ~as_path ~learned_from:peer ()
  in
  Route_server.apply t.server (Update.announce route)

let preload t ~peer ~port ?as_path prefix =
  let p = participant t peer in
  let port = Participant.port p port in
  let as_path = Option.value as_path ~default:[ peer ] in
  let route =
    Route.make ~prefix ~next_hop:port.ip ~as_path ~learned_from:peer ()
  in
  Route_server.load t.server (Update.announce route)

let withdraw t ~peer prefix =
  Route_server.apply t.server (Update.withdraw ~peer prefix)
