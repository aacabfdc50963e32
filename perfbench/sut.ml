(* The system under test and its generated inputs: an emulated exchange
   (sdx_ixp, generated before any timing), the controller built over it
   (Runtime, Gateway, Fabric over an edge/core topology), the client
   halves of the participants' BGP sessions, and the frames the
   participants' routers would emit. *)

open Sdx_net
open Sdx_bgp
open Sdx_core
open Sdx_ixp
module Fabric = Sdx_fabric.Fabric
module Topology = Sdx_fabric.Topology

type exchange = {
  participants : int;
  prefixes : int;
  dense : bool;
      (** [bench json]'s mix: transit policies pin one destination per
          500 prefixes, and three times the content-provider share *)
}

let build_workload x ~seed =
  let rng = Rng.create ~seed in
  if x.dense then
    Workload.build rng ~participants:x.participants ~prefixes:x.prefixes
      ~transit_picks:(max 1 (min 200 (x.prefixes / 500)))
      ~inbound_density:3.0 ()
  else Workload.build rng ~participants:x.participants ~prefixes:x.prefixes ()

type t = {
  w : Workload.t;
  rt : Runtime.t;
  topo : Topology.t;
  fab : Fabric.t;
  gw : Gateway.t;
  asns : Asn.t array;  (** participants, in configuration order *)
  clients : Peer.t array;  (** each participant's router, by [asns] index *)
}

type setup = {
  setup_s : float;
  compile_s : float;  (** [Compile.stats.elapsed_s] of the initial build *)
  rules : int;
  groups : int;
  initial_commit_s : float;
  initial_mods : int;
  snapshot_s : float;
}

let rs_asn = Asn.of_int 65535

let router asn =
  Peer.create
    ~local:{ Wire.asn; hold_time = 90; bgp_id = Ipv4.of_string "192.0.2.9" }
    ~peer_asn:rs_asn

(* Shuttle bytes between every router and its server-side session until
   all sessions are established (OPEN, KEEPALIVE, KEEPALIVE). *)
let establish t =
  Gateway.connect_all t.gw;
  Array.iter Peer.connect t.clients;
  let rounds = ref 0 in
  while List.length (Gateway.established t.gw) < Array.length t.asns do
    incr rounds;
    if !rounds > 8 then failwith "BGP sessions did not establish";
    Array.iteri
      (fun i asn ->
        List.iter
          (fun b ->
            match Gateway.deliver t.gw ~from:asn b with
            | Ok _ -> ()
            | Error e -> failwith ("session set-up: " ^ e))
          (Peer.pending_output t.clients.(i));
        List.iter
          (fun b ->
            match Peer.feed t.clients.(i) b with
            | Ok _ -> ()
            | Error e -> failwith ("session set-up: " ^ e))
          (Gateway.outbox t.gw asn))
      t.asns
  done

let ports_of (w : Workload.t) =
  List.init (Config.port_count w.config) (fun i -> i + 1)

(* Controller set-up on a freshly generated workload.  The timed part is
   [Runtime.create] (initial compile), [Fabric.create] and the initial
   two-phase commit, plus the reader snapshot and/or the BGP session
   set-up when asked for. *)
let create ~snapshot ~sessions (w : Workload.t) =
  let asns =
    Array.of_list
      (List.map (fun (p : Participant.t) -> p.asn) (Config.participants w.config))
  in
  let clients = Array.map router asns in
  let topo = Topology.edge_core ~edges:2 ~ports:(ports_of w) in
  let t0 = Common.now () in
  let rt = Runtime.create w.config in
  let fab = Fabric.create topo in
  let stats, initial_commit_s =
    Common.time (fun () -> Fabric.commit fab (Runtime.flows rt))
  in
  let snapshot_s =
    if snapshot then snd (Common.time (fun () -> Fabric.snapshots fab)) else 0.0
  in
  let gw = Gateway.create rt in
  let t = { w; rt; topo; fab; gw; asns; clients } in
  if sessions then establish t;
  let setup_s = Common.now () -. t0 in
  ( t,
    {
      setup_s;
      compile_s = (Compile.stats (Runtime.compiled rt)).elapsed_s;
      rules = Runtime.rule_count rt;
      groups = Runtime.group_count rt;
      initial_commit_s;
      initial_mods = Fabric.total_mods stats;
      snapshot_s;
    } )

(* Set up [repeats] times from identically generated workloads and keep
   the last controller: [setup_s] is reported as the median. *)
let create_repeated ~repeats ~seed x ~snapshot ~sessions =
  let rec go k acc =
    let w = build_workload x ~seed in
    Gc.compact ();
    let t, s = create ~snapshot ~sessions w in
    if k = repeats then (t, List.rev (s :: acc)) else go (k + 1) (s :: acc)
  in
  go 1 []

let index_of t asn =
  let rec find i = if Asn.equal t.asns.(i) asn then i else find (i + 1) in
  find 0

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)

(* Ports the §6.1 policy mix matches on (Workload's service ports), plus
   common ones no policy names. *)
let dst_ports = [| 80; 443; 8080; 8443; 1935; 554; 22; 53; 25; 123 |]

let random_ip rng = Ipv4.of_int ((1 + Rng.int rng 223) lsl 24 lor Rng.int rng 0xFFFFFF)

let inside rng p =
  let span = 1 lsl (32 - Prefix.length p) in
  Prefix.host p (Rng.int rng (min span 65536))

(* A frame as [sender]'s border router would emit it toward [prefix]:
   addressed to the VMAC the ARP responder gives for the next hop the SDX
   announced to the sender, with a destination inside the prefix.  [None]
   when the SDX announces the sender no route for it. *)
let frame t rng ~sender prefix =
  match Runtime.announcement t.rt ~receiver:sender prefix with
  | None -> None
  | Some (route : Route.t) -> (
      match Sdx_arp.Responder.query (Runtime.arp t.rt) route.next_hop with
      | None -> None
      | Some vmac ->
          let cfg = Runtime.config t.rt in
          let p = Config.participant cfg sender in
          let idx = Rng.int rng (List.length p.ports) in
          let port = List.nth p.ports idx in
          Some
            (Packet.make
               ~port:(Config.switch_port cfg sender idx)
               ~src_mac:port.mac ~dst_mac:vmac ~src_ip:(random_ip rng)
               ~dst_ip:(inside rng prefix)
               ~proto:(if Rng.bool rng ~p:0.8 then Packet.proto_tcp else Packet.proto_udp)
               ~src_port:(1024 + Rng.int rng 64_000)
               ~dst_port:dst_ports.(Rng.int rng (Array.length dst_ports))
               ()))

let frames t ~seed n =
  let rng = Rng.create ~seed in
  let senders =
    Array.of_list
      (List.filter
         (fun asn -> Config.switch_ports_of (Runtime.config t.rt) asn <> [])
         (Array.to_list t.asns))
  in
  let universe = Array.of_list t.w.universe in
  let rec one tries =
    if tries > 10_000 then failwith "no routable (sender, prefix) pair";
    let sender = senders.(Rng.int rng (Array.length senders)) in
    let prefix = universe.(Rng.int rng (Array.length universe)) in
    match frame t rng ~sender prefix with
    | Some f -> f
    | None -> one (tries + 1)
  in
  Array.init n (fun _ -> one 0)

(* Canonical delivery set of a frame, for comparing two fabrics. *)
let canon outs = List.sort Packet.compare outs
