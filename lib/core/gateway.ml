open Sdx_net
open Sdx_bgp

type t = {
  runtime : Runtime.t;
  sessions : (Asn.t, Peer.t) Hashtbl.t;
  order : Asn.t list;
}

let create ?(rs_asn = Asn.of_int 65535) ?(rs_id = Ipv4.of_string "172.31.255.1")
    runtime =
  let config = Runtime.config runtime in
  let sessions = Hashtbl.create 32 in
  let order =
    List.map
      (fun (p : Participant.t) ->
        let peer =
          Peer.create
            ~local:{ Wire.asn = rs_asn; hold_time = 90; bgp_id = rs_id }
            ~peer_asn:p.asn
        in
        Hashtbl.replace sessions p.asn peer;
        p.asn)
      (Config.participants config)
  in
  { runtime; sessions; order }

let runtime t = t.runtime

let session t asn =
  match Hashtbl.find_opt t.sessions asn with
  | Some s -> s
  | None -> raise Not_found

let connect_all t = Hashtbl.iter (fun _ s -> Peer.connect s) t.sessions

let established t =
  List.filter (fun asn -> Peer.state (session t asn) = Fsm.Established) t.order

let outbox t asn = Peer.pending_output (session t asn)

(* Re-advertise one prefix's new state (announcement with VNH next hop,
   or withdrawal) to every established session except the update's
   source.  Receivers with the same best route get the same message, so
   each distinct message is encoded once per call and every receiver
   queues its own copy of the bytes. *)
let readvertise t ~from prefix =
  let encoded = ref [] in
  let encode msg =
    match List.assoc_opt msg !encoded with
    | Some bytes -> bytes
    | None ->
        let bytes = Wire.encode msg in
        encoded := (msg, bytes) :: !encoded;
        bytes
  in
  List.iter
    (fun receiver ->
      if not (Asn.equal receiver from) then begin
        let update =
          match Runtime.announcement t.runtime ~receiver prefix with
          | Some route -> Update.announce route
          | None -> Update.withdraw ~peer:receiver prefix
        in
        Peer.send_encoded (session t receiver) (encode (Wire.of_update update))
      end)
    (established t)

let flush_if_requested t asn =
  let peer = session t asn in
  if Peer.flush_requested peer then begin
    let server = Config.server (Runtime.config t.runtime) in
    let prefixes = Route_server.prefixes_of server asn in
    List.iter
      (fun prefix ->
        let stats = Runtime.withdraw t.runtime ~peer:asn prefix in
        if stats.best_changed then readvertise t ~from:asn prefix)
      prefixes
  end

let deliver t ~from data =
  let peer = session t from in
  match Peer.feed peer data with
  | Error _ as e ->
      flush_if_requested t from;
      e
  | Ok updates ->
      let stats =
        List.map
          (fun update ->
            let s = Runtime.handle_update t.runtime update in
            if s.Runtime.best_changed then
              readvertise t ~from (Update.prefix update);
            s)
          updates
      in
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
