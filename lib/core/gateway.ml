open Sdx_net
open Sdx_bgp

type t = {
  runtime : Runtime.t;
  sessions : (Asn.t, Peer.t) Hashtbl.t;
  in_order : Peer.t array;
      (* the sessions in participant order: bit [i] of a route-server
         receiver set is [in_order.(i)] *)
}

let create ?(rs_asn = Asn.of_int 65535) ?(rs_id = Ipv4.of_string "172.31.255.1")
    runtime =
  let in_order =
    Array.of_list
      (List.map
         (fun asn ->
           Peer.create
             ~local:{ Wire.asn = rs_asn; hold_time = 90; bgp_id = rs_id }
             ~peer_asn:asn)
         (Route_server.participants (Config.server (Runtime.config runtime))))
  in
  let sessions = Hashtbl.create (Array.length in_order) in
  Array.iter (fun peer -> Hashtbl.replace sessions (Peer.peer_asn peer) peer) in_order;
  { runtime; sessions; in_order }

let runtime t = t.runtime

let session t asn =
  match Hashtbl.find_opt t.sessions asn with
  | Some s -> s
  | None -> raise Not_found

let connect_all t = Array.iter Peer.connect t.in_order

let is_established peer = Peer.state peer = Fsm.Established

let established t =
  Array.fold_right
    (fun peer acc -> if is_established peer then Peer.peer_asn peer :: acc else acc)
    t.in_order []

let outbox t asn = Peer.pending_output (session t asn)

(* Re-advertise one prefix's new state (announcement with VNH next hop,
   or withdrawal) to every established session except [from].  The
   route server hands out each distinct best route with the receivers
   it is best for, so each route's next hop is rewritten and its
   message encoded once, and that one encoding is queued on each of its
   receivers. *)
let readvertise t ~from prefix =
  let among = Bitset.create (Array.length t.in_order) in
  Array.iteri
    (fun i peer ->
      if is_established peer && not (Asn.equal (Peer.peer_asn peer) from) then
        Bitset.set among i)
    t.in_order;
  Route_server.fold_best_by_route
    (Config.server (Runtime.config t.runtime))
    prefix ~among
    (fun route receivers () ->
      let update =
        match route with
        | Some route -> Update.announce (Runtime.announced t.runtime prefix route)
        | None -> Update.withdraw ~peer:from prefix
      in
      (* Fresh bytes nothing else holds, so sharing them as a string
         is safe. *)
      let encoded = Bytes.unsafe_to_string (Wire.encode (Wire.of_update update)) in
      Bitset.iter (fun i -> Peer.send_encoded t.in_order.(i) encoded) receivers)
    ()

(* A lost session's routes are withdrawn as one burst: one fast-path
   block for the whole flap, then each prefix whose best route moved is
   re-advertised once, from the final state. *)
let flush_if_requested t asn =
  let peer = session t asn in
  if Peer.flush_requested peer then begin
    let server = Config.server (Runtime.config t.runtime) in
    match Route_server.prefixes_of server asn with
    | [] -> ()
    | prefixes ->
        List.iter
          (fun (s : Runtime.update_stats) ->
            if s.best_changed then readvertise t ~from:asn (Update.prefix s.update))
          (Runtime.handle_burst t.runtime
             (List.map (Update.withdraw ~peer:asn) prefixes))
  end

(* One message's updates through the runtime, in order, re-advertising
   each prefix whose best route moved.  A top-level loop: unlike
   [List.map] over a closure, the loop itself allocates only the stats
   list. *)
let rec apply_updates t ~from = function
  | [] -> []
  | update :: rest ->
      let s = Runtime.handle_update t.runtime update in
      if s.Runtime.best_changed then readvertise t ~from (Update.prefix update);
      s :: apply_updates t ~from rest

let deliver t ~from data =
  let peer = session t from in
  match Peer.feed peer data with
  | Error _ as e ->
      flush_if_requested t from;
      e
  | Ok updates ->
      let stats = apply_updates t ~from updates in
      flush_if_requested t from;
      Ok stats

let advertise_table t asn =
  let peer = session t asn in
  let routes =
    Compile.fold_announcements
      (Runtime.compiled t.runtime)
      (Runtime.config t.runtime)
      ~receiver:asn
      (fun _prefix route acc -> route :: acc)
      []
  in
  List.iter (fun route -> Peer.send_update peer (Update.announce route)) routes;
  List.length routes
