(* Tests for the fabric: border routers (stage-1 FIB of Figure 2), the
   wired network, and the deployment experiments of Figure 5. *)

open Sdx_net
open Sdx_bgp
open Sdx_fabric

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ip = Ipv4.of_string

(* An int in [a, b] that shrinks inside the range ([QCheck.int_range]
   shrinks toward 0 whatever its bounds). *)
let in_range a b =
  QCheck.make ~print:string_of_int
    ~shrink:(fun n -> QCheck.Iter.filter (fun k -> k >= a) (QCheck.Shrink.int n))
    (QCheck.Gen.int_range a b)

(* ------------------------------------------------------------------ *)
(* Border router                                                       *)

let test_router_sync_builds_fib () =
  let runtime = Fig1.make_runtime () in
  let config = Sdx_core.Runtime.config runtime in
  let router = Border_router.create config ~asn:Fig1.asn_a ~port:0 in
  check_int "empty before sync" 0 (Border_router.fib_size router);
  Border_router.sync router runtime;
  (* A's local RIB: p1..p5 (it announces nothing itself). *)
  check_int "five routes" 5 (Border_router.fib_size router);
  check_int "switch port" 1 (Border_router.switch_port router);
  check_bool "asn" true (Asn.equal (Border_router.asn router) Fig1.asn_a)

let test_router_next_hop_is_virtual () =
  let runtime = Fig1.make_runtime () in
  let config = Sdx_core.Runtime.config runtime in
  let router = Border_router.create config ~asn:Fig1.asn_a ~port:0 in
  Border_router.sync router runtime;
  (* Grouped prefix p1: virtual next hop in 172.16/12. *)
  (match Border_router.next_hop router (ip "20.0.1.9") with
  | Some nh -> check_bool "vnh pool" true (Prefix.mem nh (Prefix.of_string "172.16.0.0/12"))
  | None -> Alcotest.fail "no next hop for p1");
  (* Default-only prefix p5: real next hop (D's interface). *)
  match Border_router.next_hop router (ip "20.0.5.9") with
  | Some nh -> check_bool "real nh" true (Ipv4.equal nh (ip "172.0.0.5"))
  | None -> Alcotest.fail "no next hop for p5"

let test_router_send_tags () =
  let runtime = Fig1.make_runtime () in
  let config = Sdx_core.Runtime.config runtime in
  let router = Border_router.create config ~asn:Fig1.asn_a ~port:0 in
  Border_router.sync router runtime;
  let pkt = Packet.make ~src_ip:(ip "10.0.0.1") ~dst_ip:(ip "20.0.1.9") () in
  (match Border_router.send router pkt with
  | Some tagged ->
      check_int "located at fabric port" 1 tagged.port;
      check_bool "src mac set" true (Mac.equal tagged.src_mac Fig1.mac_a1);
      (* The tag is the VMAC of p1's group. *)
      let compiled = Sdx_core.Runtime.compiled runtime in
      let g = Option.get (Sdx_core.Compile.group_of_prefix compiled Fig1.p1) in
      check_bool "tagged with vmac" true (Mac.equal tagged.dst_mac g.vmac)
  | None -> Alcotest.fail "send failed");
  (* No route: nothing to send. *)
  check_bool "no route" true
    (Border_router.send router (Packet.make ~dst_ip:(ip "99.0.0.1") ()) = None)

let test_router_unknown_port () =
  let runtime = Fig1.make_runtime () in
  let config = Sdx_core.Runtime.config runtime in
  check_bool "bad port" true
    (try
       ignore (Border_router.create config ~asn:Fig1.asn_a ~port:7);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Network                                                             *)

let delivery_of net ~from ~src ~dst ~dst_port =
  let pkt =
    Packet.make ~src_ip:(ip src) ~dst_ip:(ip dst) ~dst_port ()
  in
  match Network.inject net ~from pkt with
  | [ d ] -> Some d
  | [] -> None
  | _ -> Alcotest.fail "unexpected multicast"

let test_network_figure1_deliveries () =
  let runtime = Fig1.make_runtime () in
  let net = Network.create runtime in
  let expect ~src ~dst ~dst_port want =
    match (delivery_of net ~from:Fig1.asn_a ~src ~dst ~dst_port, want) with
    | Some (d : Network.delivery), Some (asn, port) ->
        check_bool "receiver" true (Asn.equal d.receiver asn);
        check_int "port" port d.receiver_port
    | None, None -> ()
    | _ -> Alcotest.fail "unexpected delivery"
  in
  expect ~src:"10.0.0.1" ~dst:"20.0.1.9" ~dst_port:80 (Some (Fig1.asn_b, 0));
  expect ~src:"192.168.0.1" ~dst:"20.0.1.9" ~dst_port:80 (Some (Fig1.asn_b, 1));
  expect ~src:"10.0.0.1" ~dst:"20.0.4.9" ~dst_port:443 (Some (Fig1.asn_c, 0));
  expect ~src:"10.0.0.1" ~dst:"20.0.4.9" ~dst_port:80 (Some (Fig1.asn_c, 0));
  expect ~src:"10.0.0.1" ~dst:"20.0.5.9" ~dst_port:9999 (Some (Fig1.asn_d, 0))

let test_network_delivery_rewrites_mac () =
  let runtime = Fig1.make_runtime () in
  let net = Network.create runtime in
  match delivery_of net ~from:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9" ~dst_port:80 with
  | Some d ->
      (* §4.1: the fabric rewrites the destination MAC to the physical
         address of the receiving port, or B would drop the frame. *)
      check_bool "dst mac rewritten" true (Mac.equal d.packet.dst_mac Fig1.mac_b1)
  | None -> Alcotest.fail "no delivery"

let test_network_sync_after_update () =
  let runtime = Fig1.make_runtime () in
  let net = Network.create runtime in
  ignore (Sdx_core.Runtime.withdraw runtime ~peer:Fig1.asn_b Fig1.p1);
  Network.sync net;
  (* B no longer exports p1: the diversion must stop at the fabric. *)
  match delivery_of net ~from:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9" ~dst_port:80 with
  | Some d -> check_bool "back to C" true (Asn.equal d.receiver Fig1.asn_c)
  | None -> Alcotest.fail "traffic lost after withdrawal"

let test_network_router_access () =
  let runtime = Fig1.make_runtime () in
  let net = Network.create runtime in
  check_bool "router exists" true
    (Asn.equal (Border_router.asn (Network.router net Fig1.asn_a)) Fig1.asn_a);
  check_bool "no router for unknown" true
    (try
       ignore (Network.router net (Asn.of_int 9999));
       false
     with Not_found -> true)

let test_network_incremental_sync () =
  let runtime = Fig1.make_runtime () in
  let net = Network.create runtime in
  let full_table = Sdx_openflow.Switch.rule_count (Network.switch net) in
  (* A no-op sync sends nothing. *)
  Network.sync net;
  check_int "no-op sync" 0 (Network.last_sync_flow_mods net);
  (* One BGP update touches a handful of entries, not the whole table. *)
  ignore (Sdx_core.Runtime.withdraw runtime ~peer:Fig1.asn_c Fig1.p1);
  Network.sync net;
  let mods = Network.last_sync_flow_mods net in
  check_bool "few flow mods for one update" true (mods > 0 && mods < full_table / 2);
  (* The background re-optimization rewrites most of the table. *)
  ignore (Sdx_core.Runtime.reoptimize runtime);
  Network.sync net;
  check_bool "reoptimization is the big sync" true
    (Network.last_sync_flow_mods net >= mods)

let test_network_switch_capacity () =
  let runtime = Fig1.make_runtime () in
  (* A comfortable budget installs fine... *)
  let net = Network.create ~switch_capacity:500 runtime in
  check_bool "fits" true
    (Sdx_openflow.Switch.rule_count (Network.switch net) > 0);
  (* ...a starved one hits the hardware limit, as §4.2 warns. *)
  check_bool "table full surfaces" true
    (try
       ignore (Network.create ~switch_capacity:5 runtime);
       false
     with Sdx_openflow.Table.Table_full -> true)

let test_network_inject_frame () =
  let runtime = Fig1.make_runtime () in
  let net = Network.create runtime in
  let pkt =
    Packet.make ~src_ip:(ip "10.0.0.1") ~dst_ip:(ip "20.0.1.9") ~dst_port:80 ()
  in
  (* Wire bytes in, wire bytes out. *)
  (match Network.inject_frame net ~from:Fig1.asn_a (Codec.to_bytes pkt) with
  | Ok [ d ] ->
      check_bool "delivered to B" true (Asn.equal d.receiver Fig1.asn_b);
      let frame = Network.frame_of_delivery d in
      (match Codec.of_bytes frame with
      | Ok out ->
          check_bool "frame addressed to receiver port" true
            (Mac.equal out.dst_mac Fig1.mac_b1)
      | Error e -> Alcotest.fail e)
  | Ok _ -> Alcotest.fail "unexpected deliveries"
  | Error e -> Alcotest.fail e);
  check_bool "garbage frame rejected" true
    (Result.is_error (Network.inject_frame net ~from:Fig1.asn_a (Bytes.make 7 'x')))

let test_network_inject_at_port () =
  let runtime = Fig1.make_runtime () in
  let net = Network.create runtime in
  (* A raw frame with an unknown destination MAC is dropped. *)
  let pkt = Packet.make ~port:1 ~dst_mac:(Mac.of_string "12:34:56:78:9a:bc") () in
  check_bool "unknown tag dropped" true (Network.inject_at_port net pkt = [])

(* ------------------------------------------------------------------ *)
(* Deployment experiments (compressed Figure 5 timelines)              *)

let test_deployment_fig5a () =
  let scenario =
    Scenarios.Fig5a.scenario ~duration:30 ~policy_at:10 ~withdraw_at:20 ()
  in
  let samples = Deployment.run scenario in
  check_int "one sample per second" 30 (List.length samples);
  let at t = List.find (fun (s : Deployment.sample) -> s.time = t) samples in
  (* Phase 1: all three flows via AS A. *)
  check_bool "before: A carries all" true (Deployment.rate (at 5) "AS-A" = 3.0);
  check_bool "before: B idle" true (Deployment.rate (at 5) "AS-B" = 0.0);
  (* Phase 2: the port-80 flow diverts to AS B. *)
  check_bool "after policy: A" true (Deployment.rate (at 15) "AS-A" = 2.0);
  check_bool "after policy: B" true (Deployment.rate (at 15) "AS-B" = 1.0);
  (* Phase 3: withdrawal pulls everything back to AS A. *)
  check_bool "after withdrawal: A" true (Deployment.rate (at 25) "AS-A" = 3.0);
  check_bool "after withdrawal: B" true (Deployment.rate (at 25) "AS-B" = 0.0)

let test_deployment_fig5b () =
  let scenario = Scenarios.Fig5b.scenario ~duration:20 ~policy_at:10 () in
  let samples = Deployment.run scenario in
  let at t = List.find (fun (s : Deployment.sample) -> s.time = t) samples in
  check_bool "before: all on instance 1" true
    (Deployment.rate (at 5) "AWS Instance #1" = 2.0);
  check_bool "before: instance 2 idle" true
    (Deployment.rate (at 5) "AWS Instance #2" = 0.0);
  check_bool "after: split" true
    (Deployment.rate (at 15) "AWS Instance #1" = 1.0
    && Deployment.rate (at 15) "AWS Instance #2" = 1.0)

let test_deployment_sampling () =
  let scenario = Scenarios.Fig5b.scenario ~duration:20 ~policy_at:10 () in
  let samples = Deployment.run ~sample_every:5 scenario in
  check_int "sampled every 5s" 4 (List.length samples);
  check_bool "missing sink reads zero" true
    (Deployment.rate (List.hd samples) "nonexistent" = 0.0)

let test_deployment_announce_event () =
  (* An announce event mid-run: before it, traffic to the prefix is
     dropped; after it, delivered. *)
  let open Sdx_core in
  let a =
    Participant.make ~asn:(Asn.of_int 1)
      ~ports:[ (Mac.of_string "0a:00:00:00:00:01", ip "172.9.0.1") ]
      ()
  in
  let b =
    Participant.make ~asn:(Asn.of_int 2)
      ~ports:[ (Mac.of_string "0a:00:00:00:00:02", ip "172.9.0.2") ]
      ()
  in
  let prefix = Prefix.of_string "55.0.0.0/16" in
  let scenario =
    {
      Deployment.participants = [ a; b ];
      seed_routes = [];
      flows =
        [
          {
            Deployment.name = "probe";
            from = Asn.of_int 1;
            packet = Packet.make ~dst_ip:(ip "55.0.1.1") ();
            rate_mbps = 1.0;
          };
        ];
      events =
        [
          ( 5,
            Deployment.Announce_route
              { peer = Asn.of_int 2; port = 0; prefix; as_path = None } );
        ];
      duration = 10;
      classify =
        (fun d -> if Asn.equal d.receiver (Asn.of_int 2) then Some "B" else None);
    }
  in
  let samples = Deployment.run scenario in
  let at t = List.find (fun (s : Deployment.sample) -> s.time = t) samples in
  check_bool "before announce: dropped" true (Deployment.rate (at 2) "B" = 0.0);
  check_bool "after announce: delivered" true (Deployment.rate (at 8) "B" = 1.0)

(* ------------------------------------------------------------------ *)
(* Middleboxes and service chaining                                    *)

let mk_mbox_world () =
  let open Sdx_core in
  let open Sdx_policy in
  let mac = Mac.of_string and pfx = Prefix.of_string in
  let asn_t = Asn.of_int 10 and asn_e = Asn.of_int 20 and asn_m = Asn.of_int 30 in
  let source_pfx = pfx "208.65.152.0/22" in
  let transit =
    Participant.make ~asn:asn_t
      ~ports:[ (mac "0a:00:00:00:00:11", ip "172.8.0.1") ]
      ~outbound:[ Ppolicy.steer (Pred.src_ip source_pfx) asn_m ]
      ()
  in
  let eyeball =
    Participant.make ~asn:asn_e ~ports:[ (mac "0a:00:00:00:00:12", ip "172.8.0.2") ] ()
  in
  let mbox =
    Participant.make ~asn:asn_m ~ports:[ (mac "0a:00:00:00:00:13", ip "172.8.0.3") ] ()
  in
  let config = Config.make [ transit; eyeball; mbox ] in
  ignore (Config.announce config ~peer:asn_e ~port:0 (pfx "73.0.0.0/8"));
  let net = Network.create (Runtime.create config) in
  (net, asn_t, asn_e, asn_m, source_pfx)

let test_middlebox_steering () =
  let net, asn_t, asn_e, asn_m, _ = mk_mbox_world () in
  Network.attach_middlebox net asn_m (Middlebox.transcoder ~to_port:8080);
  let pkt =
    Packet.make ~src_ip:(ip "208.65.152.9") ~dst_ip:(ip "73.1.1.1") ~dst_port:1935 ()
  in
  (match Network.inject net ~from:asn_t pkt with
  | [ d ] ->
      check_bool "reaches the eyeball" true (Asn.equal d.receiver asn_e);
      check_int "transcoded on the way" 8080 d.packet.dst_port
  | _ -> Alcotest.fail "chain failed");
  (* Unmatched traffic bypasses the middlebox. *)
  let other =
    Packet.make ~src_ip:(ip "9.9.9.9") ~dst_ip:(ip "73.1.1.1") ~dst_port:1935 ()
  in
  match Network.inject net ~from:asn_t other with
  | [ d ] -> check_int "untouched" 1935 d.packet.dst_port
  | _ -> Alcotest.fail "bypass failed"

let test_middlebox_scrubber_drops () =
  let net, asn_t, _, asn_m, _ = mk_mbox_world () in
  Network.attach_middlebox net asn_m
    (Middlebox.scrubber ~block:(fun p -> Ipv4.equal p.src_ip (ip "208.65.152.66")));
  let attack =
    Packet.make ~src_ip:(ip "208.65.152.66") ~dst_ip:(ip "73.1.1.1") ()
  in
  check_bool "attack scrubbed" true (Network.inject net ~from:asn_t attack = []);
  let clean = Packet.make ~src_ip:(ip "208.65.152.9") ~dst_ip:(ip "73.1.1.1") () in
  check_int "clean passes" 1 (List.length (Network.inject net ~from:asn_t clean))

let test_middlebox_detach () =
  let net, asn_t, _, asn_m, _ = mk_mbox_world () in
  Network.attach_middlebox net asn_m (Middlebox.scrubber ~block:(fun _ -> true));
  let pkt = Packet.make ~src_ip:(ip "208.65.152.9") ~dst_ip:(ip "73.1.1.1") () in
  check_bool "everything scrubbed" true (Network.inject net ~from:asn_t pkt = []);
  Network.detach_middlebox net asn_m;
  (* Without the function, the steered frame lands at the host port. *)
  match Network.inject net ~from:asn_t pkt with
  | [ d ] -> check_bool "delivered at host" true (Asn.equal d.receiver asn_m)
  | _ -> Alcotest.fail "detach failed"

let test_middlebox_loop_bounded () =
  (* A middlebox that bounces every packet straight back into itself via
     the steering policy must terminate as a drop, not diverge. *)
  let net, asn_t, _, asn_m, _ = mk_mbox_world () in
  (* Echo middlebox: emits the packet unchanged; the host router re-tags
     it toward the eyeball, but we make the steering predicate loop by
     also steering the middlebox host's own output. *)
  Network.attach_middlebox net asn_m (fun p -> [ p ]);
  let pkt = Packet.make ~src_ip:(ip "208.65.152.9") ~dst_ip:(ip "73.1.1.1") () in
  (* Terminates with a delivery (no infinite loop). *)
  check_bool "bounded" true (List.length (Network.inject net ~from:asn_t pkt) <= 2)

let test_middlebox_combinators () =
  let pkt = Packet.make ~dst_port:1935 ~src_ip:(ip "1.2.3.4") () in
  check_bool "tee duplicates" true (List.length (Middlebox.tee pkt) = 2);
  (match Middlebox.nat ~public_ip:(ip "9.9.9.9") pkt with
  | [ p ] -> check_bool "nat rewrites" true (Ipv4.equal p.src_ip (ip "9.9.9.9"))
  | _ -> Alcotest.fail "nat");
  match
    Middlebox.chain
      [ Middlebox.transcoder ~to_port:80; Middlebox.nat ~public_ip:(ip "9.9.9.9") ]
      pkt
  with
  | [ p ] ->
      check_int "chained transcode" 80 p.dst_port;
      check_bool "chained nat" true (Ipv4.equal p.src_ip (ip "9.9.9.9"))
  | _ -> Alcotest.fail "chain"

let test_attach_requires_port () =
  let runtime = Fig1.make_runtime () in
  let net = Network.create runtime in
  check_bool "remote host rejected" true
    (try
       Network.attach_middlebox net (Asn.of_int 4242) (fun p -> [ p ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

let test_telemetry_counters () =
  let runtime = Fig1.make_runtime () in
  let net = Network.create runtime in
  let send ~src ~dst ~dst_port =
    ignore
      (Network.inject net ~from:Fig1.asn_a
         (Packet.make ~src_ip:(ip src) ~dst_ip:(ip dst) ~dst_port ()))
  in
  send ~src:"10.0.0.1" ~dst:"20.0.1.9" ~dst_port:80;  (* -> B *)
  send ~src:"10.0.0.2" ~dst:"20.0.1.9" ~dst_port:80;  (* -> B *)
  send ~src:"10.0.0.1" ~dst:"20.0.4.9" ~dst_port:443;  (* -> C *)
  send ~src:"10.0.0.1" ~dst:"99.0.0.1" ~dst_port:80;  (* no route: drop *)
  let t = Network.telemetry net in
  check_int "tx" 4 (Telemetry.tx t Fig1.asn_a);
  check_int "b rx" 2 (Telemetry.rx t Fig1.asn_b);
  check_int "c rx" 1 (Telemetry.rx t Fig1.asn_c);
  check_int "drops" 1 (Telemetry.dropped t Fig1.asn_a);
  check_int "total" 4 (Telemetry.total t);
  (match Telemetry.matrix t with
  | (s, r, n) :: _ ->
      check_bool "heaviest pair" true
        (Asn.equal s Fig1.asn_a && Asn.equal r Fig1.asn_b && n = 2)
  | [] -> Alcotest.fail "empty matrix");
  (match Telemetry.top_sources t ~toward:Fig1.asn_b with
  | (src, _) :: _ ->
      check_bool "sources tracked" true
        (Ipv4.equal src (ip "10.0.0.1") || Ipv4.equal src (ip "10.0.0.2"))
  | [] -> Alcotest.fail "no sources");
  Telemetry.reset t;
  check_int "reset" 0 (Telemetry.total t)

(* ------------------------------------------------------------------ *)
(* Multi-switch topology                                               *)

(* Figure 1's five ports spread over three switches in a line. *)
let fig1_topology () =
  Topology.create ~switches:[ 1; 2; 3 ]
    ~links:[ (1, 2); (2, 3) ]
    ~port_home:[ (1, 1); (2, 2); (3, 2); (4, 3); (5, 3) ]

let test_topology_structure () =
  let topo = fig1_topology () in
  check_int "switches" 3 (Topology.switch_count topo);
  check_bool "port home" true (Topology.home_of_port topo 4 = Some 3);
  check_bool "unknown port" true (Topology.home_of_port topo 99 = None);
  check_int "tree edges" 2 (List.length (Topology.spanning_tree_edges topo));
  check_bool "next hop" true (Topology.next_hop topo ~from:1 ~toward:3 = Some 2);
  check_bool "next hop down" true (Topology.next_hop topo ~from:2 ~toward:3 = Some 3);
  check_bool "same switch" true (Topology.next_hop topo ~from:2 ~toward:2 = None)

let test_topology_cycle_breaks () =
  (* A triangle: STP must drop one link. *)
  let topo =
    Topology.create ~switches:[ 1; 2; 3 ]
      ~links:[ (1, 2); (2, 3); (1, 3) ]
      ~port_home:[ (1, 1); (2, 2); (3, 3) ]
  in
  check_int "tree uses two of three links" 2
    (List.length (Topology.spanning_tree_edges topo))

let test_topology_disconnected_rejected () =
  check_bool "disconnected raises" true
    (try
       ignore (Topology.create ~switches:[ 1; 2 ] ~links:[] ~port_home:[ (1, 1) ]);
       false
     with Invalid_argument _ -> true)

(* The array-backed port maps: each trunk port names its link's ends,
   the far end's port leads back, non-neighbors have no trunk, and ids
   that cannot index an array are rejected. *)
let test_topology_port_maps () =
  let topo = fig1_topology () in
  List.iter
    (fun (a, b) ->
      let pa = Topology.trunk_port topo ~from:a ~toward_neighbor:b in
      let pb = Topology.trunk_port topo ~from:b ~toward_neighbor:a in
      check_bool "trunk names its ends" true
        (Topology.trunk_destination topo pa = Some (a, b)
        && Topology.trunk_destination topo pb = Some (b, a));
      check_bool "trunk ports are not physical" true
        (Topology.home_of_port topo pa = None))
    (Topology.spanning_tree_edges topo);
  check_bool "physical port is no trunk" true (Topology.trunk_destination topo 2 = None);
  check_bool "non-neighbors share no trunk" true
    (try
       ignore (Topology.trunk_port topo ~from:1 ~toward_neighbor:3);
       false
     with Not_found -> true);
  check_bool "physical ports ascending" true
    (Topology.physical_ports topo = [ (1, 1); (2, 2); (3, 2); (4, 3); (5, 3) ]);
  let rejected f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "negative switch id rejected" true
    (rejected (fun () -> Topology.create ~switches:[ -1 ] ~links:[] ~port_home:[]));
  check_bool "negative port rejected" true
    (rejected (fun () -> Topology.create ~switches:[ 1 ] ~links:[] ~port_home:[ (-3, 1) ]))

(* ------------------------------------------------------------------ *)
(* Sharded fabric with two-phase consistent updates                    *)

let test_edge_core_structure () =
  let topo = Topology.edge_core ~edges:3 ~ports:[ 1; 2; 3; 4; 5 ] in
  check_int "switches" 4 (Topology.switch_count topo);
  check_bool "switch ids" true (Topology.switches topo = [ 0; 1; 2; 3 ]);
  check_bool "edges host ports" true (Topology.edge_switches topo = [ 1; 2; 3 ]);
  check_bool "round-robin" true (Topology.home_of_port topo 4 = Some 1);
  check_int "star links" 3 (List.length (Topology.spanning_tree_edges topo));
  check_bool "one edge minimum" true
    (try
       ignore (Topology.edge_core ~edges:0 ~ports:[ 1 ]);
       false
     with Invalid_argument _ -> true)

(* A Fig1 network on a sharded fabric next to the same world on the
   default single switch. *)
let mk_world topology =
  let runtime = Fig1.make_runtime () in
  let single = Network.create (Sdx_core.Runtime.create (Fig1.make_config ())) in
  let sharded = Network.create ~topology runtime in
  (single, sharded)

let mk_sharded_world edges = mk_world (Topology.edge_core ~edges ~ports:[ 1; 2; 3; 4; 5 ])

let delivery_key (d : Network.delivery) =
  (Asn.to_int d.receiver, d.receiver_port, d.packet)

let inject_sorted net ~from pkt =
  List.sort compare (List.map delivery_key (Network.inject net ~from pkt))

let probe_cases =
  [
    (Fig1.asn_a, "10.0.0.1", "20.0.1.9", 80);
    (Fig1.asn_a, "10.0.0.1", "20.0.1.9", 443);
    (Fig1.asn_a, "192.168.7.1", "20.0.2.9", 22);
    (Fig1.asn_a, "10.0.0.1", "20.0.3.9", 8080);
    (Fig1.asn_a, "10.0.0.1", "20.0.4.9", 443);
    (Fig1.asn_a, "10.0.0.1", "20.0.5.9", 80);
    (Fig1.asn_a, "10.0.0.1", "99.0.0.1", 80);
    (Fig1.asn_b, "20.0.1.7", "20.0.4.9", 443);
    (Fig1.asn_b, "20.0.2.7", "20.0.5.9", 9999);
    (Fig1.asn_c, "20.0.4.7", "20.0.1.9", 80);
    (Fig1.asn_d, "20.0.5.7", "20.0.3.9", 443);
  ]

let test_fabric_delivery_equivalence () =
  List.iter
    (fun edges ->
      let single, sharded = mk_sharded_world edges in
      List.iter
        (fun (from, src, dst, dst_port) ->
          let pkt = Packet.make ~src_ip:(ip src) ~dst_ip:(ip dst) ~dst_port () in
          check_bool
            (Printf.sprintf "%d edges: %s->%s:%d" edges src dst dst_port)
            true
            (inject_sorted single ~from pkt = inject_sorted sharded ~from pkt))
        probe_cases;
      check_int
        (Printf.sprintf "%d edges: no mixed-version packets" edges)
        0
        (Fabric.mixed_version_packets (Network.fabric sharded)))
    [ 1; 2; 4 ]

(* qcheck: random headers, random shard count — delivery sets match the
   single big switch packet for packet. *)
let prop_sharded_matches_single =
  let worlds = List.map (fun e -> (e, mk_sharded_world e)) [ 1; 2; 3 ] in
  QCheck.Test.make ~count:300 ~name:"sharded fabric = single switch"
    QCheck.(
      quad (in_range 0 2)
        (in_range 0 3)
        (in_range 1 6)
        (pair (in_range 0 255) small_nat))
    (fun (world_i, sender_i, third_octet, (last_octet, port_seed)) ->
      let _, (single, sharded) = List.nth worlds world_i in
      let from =
        List.nth [ Fig1.asn_a; Fig1.asn_b; Fig1.asn_c; Fig1.asn_d ] sender_i
      in
      let dst =
        ip (Printf.sprintf "20.0.%d.%d" third_octet last_octet)
      in
      let pkt =
        Packet.make ~src_ip:(ip "10.0.0.1") ~dst_ip:dst
          ~dst_port:(List.nth [ 80; 443; 22; 4321 ] (port_seed mod 4))
          ()
      in
      inject_sorted single ~from pkt = inject_sorted sharded ~from pkt
      && Fabric.mixed_version_packets (Network.fabric sharded) = 0)

(* Figure 1's withdrawal of p5 by D leaves the logical ruleset as it
   was; withdrawing p1 from C and re-optimizing renumbers the VNHs and
   positional priorities, so it flips slices the probes cross. *)
let withdraw_d_p5 net =
  ignore (Sdx_core.Runtime.withdraw (Network.runtime net) ~peer:Fig1.asn_d Fig1.p5)

let withdraw_c_p1_and_reoptimize net =
  let runtime = Network.runtime net in
  ignore (Sdx_core.Runtime.withdraw runtime ~peer:Fig1.asn_c Fig1.p1);
  ignore (Sdx_core.Runtime.reoptimize runtime)

let inject_probes net =
  List.iter
    (fun (from, src, dst, dst_port) ->
      let pkt = Packet.make ~src_ip:(ip src) ~dst_ip:(ip dst) ~dst_port () in
      ignore (Network.inject net ~from pkt))
    probe_cases

let test_fabric_two_phase_commit_clean () =
  let single, sharded = mk_sharded_world 2 in
  let fab = Network.fabric sharded in
  check_int "version after create" 1 (Fabric.version fab);
  let probe msg =
    inject_probes sharded;
    check_int msg 0 (Fabric.mixed_version_packets fab)
  in
  (* Each control-plane change is committed with probe traffic injected
     inside every phase window. *)
  let commit_probed () =
    let phases = ref [] in
    let stats =
      Network.commit sharded ~on_phase:(fun ph ->
          phases := ph :: !phases;
          match ph with
          | Fabric.Installed v -> probe (Printf.sprintf "clean at install v%d" v)
          | Fabric.Flipped v -> probe (Printf.sprintf "clean at flip v%d" v)
          | Fabric.Collected v -> probe (Printf.sprintf "clean after gc v%d" v)
          | Fabric.Synced_member _ -> ())
    in
    (stats, List.rev !phases)
  in
  (* An update that leaves the ruleset as it was sends nothing. *)
  withdraw_d_p5 sharded;
  let stats, phases = commit_probed () in
  check_int "unchanged ruleset stays at v1" 1 stats.Fabric.version;
  check_int "fabric agrees" 1 (Fabric.version fab);
  check_int "no install" 0 stats.Fabric.install_mods;
  check_int "no flip" 0 stats.Fabric.flip_mods;
  check_int "no collection" 0 stats.Fabric.gc_mods;
  check_bool "three phases fired" true
    (phases = [ Fabric.Installed 1; Fabric.Flipped 1; Fabric.Collected 0 ]);
  (* One that flips slices the probes cross. *)
  withdraw_c_p1_and_reoptimize sharded;
  let stats, phases = commit_probed () in
  check_int "moved to v2" 2 stats.Fabric.version;
  check_int "fabric agrees" 2 (Fabric.version fab);
  check_bool "installed the flipped slices" true (stats.Fabric.install_mods > 0);
  check_bool "collected their old parity" true (stats.Fabric.gc_mods > 0);
  check_bool "three phases fired" true
    (phases = [ Fabric.Installed 2; Fabric.Flipped 2; Fabric.Collected 1 ]);
  (* Converged state still matches the big switch after the same updates
     there. *)
  withdraw_d_p5 single;
  withdraw_c_p1_and_reoptimize single;
  Network.sync single;
  (* The sharded commit above covered the data plane; this refreshes the
     router FIBs and must send no further flow-mods. *)
  Network.sync sharded;
  check_int "commit already covered the generation" 0
    (Network.last_sync_flow_mods sharded);
  List.iter
    (fun (from, src, dst, dst_port) ->
      let pkt = Packet.make ~src_ip:(ip src) ~dst_ip:(ip dst) ~dst_port () in
      check_bool "post-commit equivalence" true
        (inject_sorted single ~from pkt = inject_sorted sharded ~from pkt))
    probe_cases;
  check_int "still no mixed packets" 0 (Fabric.mixed_version_packets fab)

let test_fabric_unsafe_commit_detects_mixing () =
  let _, sharded = mk_sharded_world 2 in
  let fab = Network.fabric sharded in
  let unsafe_commit () =
    ignore
      (Network.commit sharded ~protocol:`Unsafe_single_phase ~on_phase:(function
        | Fabric.Synced_member _ -> inject_probes sharded
        | _ -> ()))
  in
  (* Nothing changes, so there is nothing to cut over. *)
  withdraw_d_p5 sharded;
  unsafe_commit ();
  check_int "an unchanged ruleset mixes nothing" 0 (Fabric.mixed_version_packets fab);
  check_int "and misses no transit rule" 0 (Fabric.transit_misses fab);
  (* Cut over switch by switch with no make-before-break: once the first
     switch (the core) runs the new ruleset, frames stamped with a
     flipped slice's old parity find no transit rule there. *)
  withdraw_c_p1_and_reoptimize sharded;
  unsafe_commit ();
  check_bool "monitor caught mixed-ruleset packets" true
    (Fabric.mixed_version_packets fab > 0);
  check_bool "including transit misses" true (Fabric.transit_misses fab > 0);
  (* The same counters surface as sdx_check findings. *)
  let findings = Sdx_check.Check.network_lints sharded in
  check_bool "mixed-version lint is an error" true
    (List.exists
       (fun (f : Sdx_check.Check.finding) ->
         f.code = "mixed-version-packets" && f.severity = Sdx_check.Check.Error)
       findings);
  check_bool "transit-miss lint present" true
    (List.exists
       (fun (f : Sdx_check.Check.finding) -> f.code = "transit-miss")
       findings)

let test_fabric_commit_skips_unchanged () =
  let _, sharded = mk_sharded_world 2 in
  Network.sync sharded;
  check_int "no-op sync sends nothing" 0 (Network.last_sync_flow_mods sharded);
  check_int "version unchanged" 1 (Fabric.version (Network.fabric sharded));
  withdraw_d_p5 sharded;
  Network.sync sharded;
  check_int "an update that changes no rule sends nothing" 0
    (Network.last_sync_flow_mods sharded);
  check_int "nor moves the version" 1 (Fabric.version (Network.fabric sharded));
  ignore
    (Sdx_core.Runtime.withdraw (Network.runtime sharded) ~peer:Fig1.asn_c
       Fig1.p1);
  Network.sync sharded;
  check_bool "real change commits" true (Network.last_sync_flow_mods sharded > 0);
  check_int "version bumped" 2 (Fabric.version (Network.fabric sharded));
  Network.sync sharded;
  check_int "and settles again" 0 (Network.last_sync_flow_mods sharded)

(* ------------------------------------------------------------------ *)
(* Per-destination commits under churn                                 *)

type churn_op = Withdraw of int * int | Announce of int * int * int | Reoptimize

let churn_peers = [| Fig1.asn_b; Fig1.asn_c; Fig1.asn_d |]
let churn_prefixes = [| Fig1.p1; Fig1.p2; Fig1.p3; Fig1.p4; Fig1.p5 |]

let apply_churn_op runtime = function
  | Withdraw (i, j) ->
      ignore (Sdx_core.Runtime.withdraw runtime ~peer:churn_peers.(i) churn_prefixes.(j))
  | Announce (i, j, hops) ->
      let peer = churn_peers.(i) in
      let as_path = peer :: List.init hops (fun k -> Asn.of_int (65001 + k)) in
      ignore (Sdx_core.Runtime.announce runtime ~peer ~port:0 ~as_path churn_prefixes.(j))
  | Reoptimize -> ignore (Sdx_core.Runtime.reoptimize runtime)

let arb_churn_op =
  let open QCheck.Gen in
  QCheck.make
    ~print:(function
      | Withdraw (i, j) -> Printf.sprintf "withdraw %d p%d" i (j + 1)
      | Announce (i, j, h) -> Printf.sprintf "announce %d p%d +%d" i (j + 1) h
      | Reoptimize -> "reoptimize")
    (frequency
       [
         (4, map2 (fun i j -> Withdraw (i, j)) (int_range 0 2) (int_range 0 4));
         ( 4,
           map3 (fun i j h -> Announce (i, j, h)) (int_range 0 2) (int_range 0 4)
             (int_range 0 3) );
         (1, return Reoptimize);
       ])

let fabric_flow_mods fab =
  List.fold_left
    (fun n s -> n + Sdx_openflow.Connection.flow_mods_applied (Fabric.connection fab s))
    0 (Fabric.switches fab)

(* Every switch holds exactly one parity of every slice whose reach
   includes it, and no other transit copy.  A slice is the transit copies
   of one MAC's port-unpinned dst-MAC rules; its reach is read off the
   installed tables: a switch is in it when some installed rule sends a
   frame tagged for that MAC over a trunk into the switch. *)
let slices_exact net =
  let fab = Network.fabric net in
  let topo = Fabric.topo fab in
  let entries s = Sdx_openflow.Table.entries (Sdx_openflow.Switch.table (Fabric.switch fab s) 0) in
  let sliced = Hashtbl.create 16 in
  List.iter
    (fun (f : Sdx_openflow.Flow.t) ->
      match (f.pattern.Sdx_policy.Pattern.port, f.pattern.dst_mac) with
      | None, Some mac -> Hashtbl.replace sliced mac ()
      | _ -> ())
    (Sdx_core.Runtime.flows (Network.runtime net));
  let reached = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (fun (f : Sdx_openflow.Flow.t) ->
          List.iter
            (fun (m : Sdx_policy.Mods.t) ->
              match (Option.map (Topology.trunk_destination topo) m.port, m.dst_mac) with
              | Some (Some (_, next)), Some tag -> (
                  match Fabric.untag fab tag with
                  | Some mac when Hashtbl.mem sliced mac -> Hashtbl.replace reached (next, mac) ()
                  | _ -> ())
              | _ -> ())
            f.actions)
        (entries s))
    (Fabric.switches fab);
  List.for_all
    (fun s ->
      let expected =
        List.sort Mac.compare
          (Hashtbl.fold (fun (s', mac) () acc -> if s' = s then mac :: acc else acc) reached [])
      in
      let parities = Hashtbl.create 16 in
      let well_formed =
        List.for_all
          (fun (f : Sdx_openflow.Flow.t) ->
            f.priority < Fabric.transit_base
            ||
            match f.pattern.dst_mac with
            | None -> false
            | Some tag -> (
                match (Fabric.untag fab tag, Vtag.parity tag) with
                | Some mac, Some p ->
                    let seen = Option.value (Hashtbl.find_opt parities mac) ~default:0 in
                    Hashtbl.replace parities mac (seen lor (1 lsl p));
                    true
                | _ -> false))
          (entries s)
      in
      well_formed
      && Hashtbl.fold (fun _ bits ok -> ok && bits <> 3) parities true
      && List.sort Mac.compare (Hashtbl.fold (fun mac _ acc -> mac :: acc) parities [])
         = expected)
    (Fabric.switches fab)

(* Random Figure 1 churn, each step committed to a sharded fabric with
   probes in every phase window and to the single switch. *)
let churned_commits_consistent topology ops =
  let single, sharded = mk_world topology in
  let fab = Network.fabric sharded in
  List.for_all
    (fun op ->
      apply_churn_op (Network.runtime single) op;
      apply_churn_op (Network.runtime sharded) op;
      Network.sync single;
      let before = fabric_flow_mods fab in
      let stats = Network.commit sharded ~on_phase:(fun _ -> inject_probes sharded) in
      let counted = Fabric.total_mods stats = fabric_flow_mods fab - before in
      (* The routers learn the new next hops; the fabric already has
         the ruleset. *)
      Network.sync sharded;
      counted
      && Network.last_sync_flow_mods sharded = 0
      && Fabric.mixed_version_packets fab = 0
      && slices_exact sharded
      && List.for_all
           (fun (from, src, dst, dst_port) ->
             let pkt = Packet.make ~src_ip:(ip src) ~dst_ip:(ip dst) ~dst_port () in
             inject_sorted single ~from pkt = inject_sorted sharded ~from pkt)
           probe_cases)
    ops

let churn_ops = QCheck.list_of_size QCheck.Gen.(int_range 1 8) arb_churn_op

let prop_churned_commits_consistent =
  QCheck.Test.make ~count:60 ~name:"per-destination commits under churn"
    QCheck.(pair (in_range 2 3) churn_ops)
    (fun (edges, ops) ->
      churned_commits_consistent (Topology.edge_core ~edges ~ports:[ 1; 2; 3; 4; 5 ]) ops)

(* Two cores in a line (switches 0 and 1), each edge hanging off one of
   them in turn, the five ports round-robin over the edges.  A frame
   between edges on different cores crosses three trunks, so the reach
   of its destination's slice grows hop by hop through the closure. *)
let two_core_line edges =
  let edge_ids = List.init edges (fun i -> i + 2) in
  Topology.create ~switches:(0 :: 1 :: edge_ids)
    ~links:((0, 1) :: List.map (fun e -> (e mod 2, e)) edge_ids)
    ~port_home:(List.init 5 (fun i -> (i + 1, 2 + (i mod edges))))

let prop_line_commits_consistent =
  QCheck.Test.make ~count:40 ~name:"per-destination commits over a two-core line"
    QCheck.(pair (in_range 2 3) churn_ops)
    (fun (edges, ops) -> churned_commits_consistent (two_core_line edges) ops)

(* A slice whose copies re-stamp toward a flipped MAC must flip too.
   Frames for [vmac] entering at port 1 leave their edge tagged for
   [vmac] (the pinned rule keeps the address), and [vmac]'s transit copy
   at the core re-addresses them to [mac_b]; changing only [mac_b]'s rule
   flips its slice, and [vmac]'s unchanged copies would otherwise keep
   stamping [mac_b]'s collected parity. *)
let closure_vmac = Mac.of_string "02:00:00:00:00:07"
let closure_mac_b = Mac.of_string "bb:bb:bb:bb:bb:01"

let closure_ruleset ?(v_priority = 20) b_priority =
  let open Sdx_policy in
  let flow priority pattern actions = Sdx_openflow.Flow.make ~priority ~pattern ~actions in
  [
    flow 30 (Pattern.make ~port:1 ~dst_mac:closure_vmac ()) [ Mods.make ~port:2 () ];
    flow v_priority
      (Pattern.make ~dst_mac:closure_vmac ())
      [ Mods.make ~dst_mac:closure_mac_b ~port:2 () ];
    flow b_priority (Pattern.make ~dst_mac:closure_mac_b ()) [ Mods.make ~port:2 () ];
  ]

let test_fabric_flip_closure () =
  let fab = Fabric.create (Topology.edge_core ~edges:2 ~ports:[ 1; 2 ]) in
  let ruleset = closure_ruleset in
  let probe () =
    let outs = Fabric.process fab (Packet.make ~port:1 ~dst_mac:closure_vmac ()) in
    check_bool "delivered at port 2" true
      (List.map (fun (p : Packet.t) -> (p.port, p.dst_mac)) outs = [ (2, closure_mac_b) ])
  in
  ignore (Fabric.commit fab (ruleset 10));
  probe ();
  let stats = Fabric.commit fab (ruleset 11) ~on_phase:(fun _ -> probe ()) in
  (* Both slices flip, each copied only where frames tagged for it
     arrive: [vmac]'s on the core, where its copy re-stamps them toward
     [mac_b]; [mac_b]'s on the core (the edge-1 ingress copies of the
     unpinned rules stamp it) and at its home edge. *)
  check_int "installed both slices" 3 stats.Fabric.install_mods;
  check_int "collected both old parities" 3 stats.Fabric.gc_mods;
  check_int "no transit miss" 0 (Fabric.transit_misses fab);
  check_int "no mixed-version packet" 0 (Fabric.mixed_version_packets fab);
  (* Changing only [vmac]'s rule flips its slice alone: probes now carry
     [vmac]'s tag and [mac_b]'s at different parities on one delivery
     tree, which is consistent — each destination has one version. *)
  let stats = Fabric.commit fab (ruleset ~v_priority:21 11) ~on_phase:(fun _ -> probe ()) in
  check_int "installed the one slice" 1 stats.Fabric.install_mods;
  check_int "collected its old parity" 1 stats.Fabric.gc_mods;
  check_int "still no mixed-version packet" 0 (Fabric.mixed_version_packets fab)

(* A ruleset the fabric cannot split (a pinned rule sending to a remote
   port names no MAC to tag) is rejected before anything is sent, and
   the fabric keeps the ruleset it had. *)
let test_fabric_rejected_ruleset_changes_nothing () =
  let fab = Fabric.create (Topology.edge_core ~edges:2 ~ports:[ 1; 2 ]) in
  ignore (Fabric.commit fab (closure_ruleset 10));
  let before = fabric_flow_mods fab and version = Fabric.version fab in
  let untaggable =
    Sdx_openflow.Flow.make ~priority:40
      ~pattern:(Sdx_policy.Pattern.make ~port:1 ())
      ~actions:[ Sdx_policy.Mods.make ~port:2 () ]
  in
  check_bool "rejected" true
    (try
       ignore (Fabric.commit fab (untaggable :: closure_ruleset 11));
       false
     with Invalid_argument _ -> true);
  check_int "nothing sent" before (fabric_flow_mods fab);
  check_int "version kept" version (Fabric.version fab);
  check_int "the old ruleset is still the committed one" 0
    (Fabric.total_mods (Fabric.commit fab (closure_ruleset 10)));
  (* The parities are the committed ones too: the flip installs both
     slices at the other parity and collects exactly their old copies,
     three on their reach (see the flip-closure test). *)
  let stats = Fabric.commit fab (closure_ruleset 11) in
  check_int "installed both slices" 3 stats.Fabric.install_mods;
  check_int "collected both old parities" 3 stats.Fabric.gc_mods

(* A VMAC whose every rule re-addresses its frames is never stamped:
   trunk frames carry the port MACs its rules rewrite to.  It gets no
   transit copy anywhere, and frames toward it still deliver as on the
   single switch. *)
let test_fabric_unstamped_vmac_has_no_copies () =
  let open Sdx_policy in
  let flow priority pattern actions = Sdx_openflow.Flow.make ~priority ~pattern ~actions in
  let port_mac p = Mac.of_int (0xaa0000000000 + p) in
  let vmac = Mac.of_string "02:00:00:00:00:09" in
  let ruleset =
    flow 20
      (Pattern.make ~dst_mac:vmac ~dst_port:80 ())
      [ Mods.make ~dst_mac:(port_mac 2) ~port:2 () ]
    :: flow 15 (Pattern.make ~dst_mac:vmac ()) [ Mods.make ~dst_mac:(port_mac 3) ~port:3 () ]
    :: List.map
         (fun p -> flow 10 (Pattern.make ~dst_mac:(port_mac p) ()) [ Mods.make ~port:p () ])
         [ 1; 2; 3 ]
  in
  let ports = [ 1; 2; 3 ] in
  let single = Fabric.create (Topology.single ~ports) in
  let sharded = Fabric.create (Topology.edge_core ~edges:2 ~ports) in
  ignore (Fabric.commit single ruleset);
  ignore (Fabric.commit sharded ruleset);
  let transit_macs s =
    List.filter_map
      (fun (f : Sdx_openflow.Flow.t) ->
        if f.priority < Fabric.transit_base then None
        else Option.bind f.pattern.dst_mac (Fabric.untag sharded))
      (Sdx_openflow.Table.entries (Sdx_openflow.Switch.table (Fabric.switch sharded s) 0))
  in
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "no copy of the VMAC on switch %d" s) false
        (List.mem vmac (transit_macs s)))
    (Fabric.switches sharded);
  check_bool "the port MACs it re-addresses to have copies" true
    (List.mem (port_mac 2) (transit_macs 0) && List.mem (port_mac 3) (transit_macs 0));
  List.iter
    (fun (port, dst_port) ->
      let pkt = Packet.make ~port ~dst_mac:vmac ~dst_port () in
      check_bool
        (Printf.sprintf "port %d, dst port %d: as the single switch" port dst_port)
        true
        (Fabric.process single pkt = Fabric.process sharded pkt))
    [ (1, 80); (1, 22); (2, 80); (2, 22); (3, 80); (3, 22) ];
  check_int "no mixed-version packet" 0 (Fabric.mixed_version_packets sharded)

(* A slice flips when only its reach changes.  Two cores in a line, an
   edge on each with a port: [vmac] is stamped by pinned rules only, so
   adding one at port 3 sends its tag through core 1 as well as core 0,
   with [vmac]'s rules unchanged.  Without a flip, frames from port 3
   would meet no [vmac] copy at core 1 between phases 2 and 3. *)
let test_fabric_reach_change_flips () =
  let open Sdx_policy in
  let flow priority pattern actions = Sdx_openflow.Flow.make ~priority ~pattern ~actions in
  let vmac = closure_vmac and mac_b = closure_mac_b in
  let topo =
    Topology.create ~switches:[ 0; 1; 2; 3; 4 ]
      ~links:[ (0, 1); (0, 2); (1, 3); (1, 4) ]
      ~port_home:[ (1, 2); (2, 3); (3, 4) ]
  in
  let fab = Fabric.create topo in
  let pinned port = flow 30 (Pattern.make ~port ~dst_mac:vmac ()) [ Mods.make ~port:2 () ] in
  let base =
    [
      flow 20 (Pattern.make ~dst_mac:vmac ()) [ Mods.make ~dst_mac:mac_b ~port:2 () ];
      flow 10 (Pattern.make ~dst_mac:mac_b ()) [ Mods.make ~port:2 () ];
    ]
  in
  let copies_of mac s =
    List.length
      (List.filter
         (fun (f : Sdx_openflow.Flow.t) ->
           f.priority >= Fabric.transit_base
           && Option.bind f.pattern.dst_mac (Fabric.untag fab) = Some mac)
         (Sdx_openflow.Table.entries (Sdx_openflow.Switch.table (Fabric.switch fab s) 0)))
  in
  let probe () =
    List.iter
      (fun port ->
        let outs = Fabric.process fab (Packet.make ~port ~dst_mac:vmac ()) in
        check_bool
          (Printf.sprintf "from port %d: delivered at port 2" port)
          true
          (List.map (fun (p : Packet.t) -> (p.port, p.dst_mac)) outs = [ (2, mac_b) ]))
      [ 1; 3 ]
  in
  ignore (Fabric.commit fab (pinned 1 :: base));
  probe ();
  check_int "vmac copied on core 0" 1 (copies_of vmac 0);
  check_int "not on core 1" 0 (copies_of vmac 1);
  let stats = Fabric.commit fab (pinned 1 :: pinned 3 :: base) ~on_phase:(fun _ -> probe ()) in
  check_int "installed vmac on both cores" 2 stats.Fabric.install_mods;
  check_int "collected its copy on core 0" 1 stats.Fabric.gc_mods;
  check_int "now on core 1" 1 (copies_of vmac 1);
  let stats = Fabric.commit fab (pinned 1 :: base) ~on_phase:(fun _ -> probe ()) in
  check_int "a shrinking reach flips too" 1 stats.Fabric.install_mods;
  check_int "collected both old copies" 2 stats.Fabric.gc_mods;
  check_int "gone from core 1" 0 (copies_of vmac 1);
  check_int "no transit miss" 0 (Fabric.transit_misses fab);
  check_int "no mixed-version packet" 0 (Fabric.mixed_version_packets fab)

(* A frame crossing two trunks (edge, core, edge) is built once per
   hop: three frame records and the delivery's list cell, 33 words. *)
let test_fabric_two_trunk_walk_allocation () =
  let open Sdx_policy in
  let fab = Fabric.create (Topology.edge_core ~edges:2 ~ports:[ 1; 2 ]) in
  ignore
    (Fabric.commit fab
       [
         Sdx_openflow.Flow.make ~priority:10
           ~pattern:(Pattern.make ~dst_mac:closure_mac_b ())
           ~actions:[ Mods.make ~port:2 () ];
       ]);
  let pkt = Packet.make ~port:1 ~dst_mac:closure_mac_b () in
  check_bool "delivered at port 2" true
    (List.map (fun (p : Packet.t) -> p.port) (Fabric.process fab pkt) = [ 2 ]);
  if Sdx_sanitize.Sync.mode () = Sdx_sanitize.Sync.Off then begin
    let walks = 1_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to walks do
      ignore (Fabric.process fab pkt)
    done;
    let per_walk = (Gc.minor_words () -. w0) /. float_of_int walks in
    check_bool (Printf.sprintf "%.1f minor words per walk" per_walk) true (per_walk < 40.0)
  end

let test_fabric_unchanged_commit_sends_nothing () =
  let w =
    Sdx_ixp.Workload.build (Sdx_ixp.Rng.create ~seed:5) ~participants:12 ~prefixes:80 ()
  in
  let runtime = Sdx_core.Runtime.create w.config in
  let ports = List.init (Sdx_core.Config.port_count w.config) (fun i -> i + 1) in
  List.iter
    (fun topo ->
      let fab = Fabric.create topo in
      let flows = Sdx_core.Runtime.flows runtime in
      let first = Fabric.commit fab flows in
      check_int "first commit installs every rule" (Fabric.total_rules fab)
        (Fabric.total_mods first);
      let before = fabric_flow_mods fab in
      let again = Fabric.commit fab (Sdx_core.Runtime.flows runtime) in
      check_int "no flow-mod counted" 0 (Fabric.total_mods again);
      check_int "no flow-mod sent" before (fabric_flow_mods fab);
      check_int "version kept" first.Fabric.version again.Fabric.version)
    [ Topology.single ~ports; Topology.edge_core ~edges:3 ~ports ]

let test_fabric_sharding_shrinks_edges () =
  let _, net1 = mk_sharded_world 1 in
  let _, net4 = mk_sharded_world 4 in
  let max_edge net =
    List.fold_left
      (fun acc (s, n) -> if s = 0 then acc else max acc n)
      0
      (Fabric.rule_counts (Network.fabric net))
  in
  check_bool "per-edge rules shrink with more edges" true
    (max_edge net4 < max_edge net1);
  (* The core forwards on tags only: every rule sits in a transit band. *)
  let core = Fabric.switch (Network.fabric net4) 0 in
  check_bool "core is populated" true (Sdx_openflow.Switch.rule_count core > 0);
  List.iter
    (fun (f : Sdx_openflow.Flow.t) ->
      check_bool "core rule is transit" true (f.priority >= Fabric.transit_base))
    (Sdx_openflow.Table.entries (Sdx_openflow.Switch.table core 0));
  (* Loop freedom over the live sharded tables. *)
  let loops =
    List.filter
      (fun (f : Sdx_check.Check.finding) ->
        f.Sdx_check.Check.severity = Sdx_check.Check.Error)
      (Sdx_check.Check.fabric_loops (Network.fabric net4))
  in
  check_int "no forwarding loops over trunks" 0 (List.length loops)

let test_fabric_steering_drops_counted () =
  (* Two middlebox hosts steering the same sources at each other: echo
     functions ping-pong the packet forever, so the chain can only end
     at the re-injection depth bound. *)
  let open Sdx_core in
  let open Sdx_policy in
  let mac = Mac.of_string and pfx = Prefix.of_string in
  let asn_e = Asn.of_int 20 and asn_m1 = Asn.of_int 30 and asn_m2 = Asn.of_int 40 in
  let src_pfx = pfx "208.65.152.0/22" in
  let eyeball =
    Participant.make ~asn:asn_e ~ports:[ (mac "0a:00:00:00:00:12", ip "172.8.0.2") ] ()
  in
  let m1 =
    Participant.make ~asn:asn_m1
      ~ports:[ (mac "0a:00:00:00:00:13", ip "172.8.0.3") ]
      ~outbound:[ Ppolicy.steer (Pred.src_ip src_pfx) asn_m2 ]
      ()
  in
  let m2 =
    Participant.make ~asn:asn_m2
      ~ports:[ (mac "0a:00:00:00:00:14", ip "172.8.0.4") ]
      ~outbound:[ Ppolicy.steer (Pred.src_ip src_pfx) asn_m1 ]
      ()
  in
  let config = Config.make [ eyeball; m1; m2 ] in
  ignore (Config.announce config ~peer:asn_e ~port:0 (pfx "73.0.0.0/8"));
  let topology = Topology.edge_core ~edges:2 ~ports:[ 1; 2; 3 ] in
  let net = Network.create ~topology (Runtime.create config) in
  Network.attach_middlebox net asn_m1 (fun p -> [ p ]);
  Network.attach_middlebox net asn_m2 (fun p -> [ p ]);
  let pkt = Packet.make ~src_ip:(ip "208.65.152.9") ~dst_ip:(ip "73.1.1.1") () in
  check_bool "loop degrades to a drop" true
    (Network.inject net ~from:asn_m1 pkt = []);
  check_bool "and the loss is counted" true (Network.steering_drops net > 0);
  check_int "telemetry agrees" (Network.steering_drops net)
    (Telemetry.steering_drops (Network.telemetry net));
  let findings = Sdx_check.Check.network_lints net in
  check_bool "steering-chain-drops lint" true
    (List.exists
       (fun (f : Sdx_check.Check.finding) ->
         f.code = "steering-chain-drops"
         && f.severity = Sdx_check.Check.Warning)
       findings)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "sdx_fabric"
    [
      ( "border_router",
        [
          Alcotest.test_case "sync builds fib" `Quick test_router_sync_builds_fib;
          Alcotest.test_case "virtual next hops" `Quick test_router_next_hop_is_virtual;
          Alcotest.test_case "send tags" `Quick test_router_send_tags;
          Alcotest.test_case "unknown port" `Quick test_router_unknown_port;
        ] );
      ( "network",
        [
          Alcotest.test_case "figure 1 deliveries" `Quick test_network_figure1_deliveries;
          Alcotest.test_case "delivery rewrites mac" `Quick
            test_network_delivery_rewrites_mac;
          Alcotest.test_case "sync after update" `Quick test_network_sync_after_update;
          Alcotest.test_case "router access" `Quick test_network_router_access;
          Alcotest.test_case "incremental sync" `Quick test_network_incremental_sync;
          Alcotest.test_case "switch capacity" `Quick test_network_switch_capacity;
          Alcotest.test_case "inject frame" `Quick test_network_inject_frame;
          Alcotest.test_case "inject at port" `Quick test_network_inject_at_port;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "figure 5a" `Quick test_deployment_fig5a;
          Alcotest.test_case "figure 5b" `Quick test_deployment_fig5b;
          Alcotest.test_case "sampling" `Quick test_deployment_sampling;
          Alcotest.test_case "announce event" `Quick test_deployment_announce_event;
        ] );
      ( "middlebox",
        [
          Alcotest.test_case "steering" `Quick test_middlebox_steering;
          Alcotest.test_case "scrubber drops" `Quick test_middlebox_scrubber_drops;
          Alcotest.test_case "detach" `Quick test_middlebox_detach;
          Alcotest.test_case "loop bounded" `Quick test_middlebox_loop_bounded;
          Alcotest.test_case "combinators" `Quick test_middlebox_combinators;
          Alcotest.test_case "attach requires port" `Quick test_attach_requires_port;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "counters" `Quick test_telemetry_counters ] );
      ( "topology",
        [
          Alcotest.test_case "structure" `Quick test_topology_structure;
          Alcotest.test_case "cycle breaks" `Quick test_topology_cycle_breaks;
          Alcotest.test_case "port maps" `Quick test_topology_port_maps;
          Alcotest.test_case "disconnected rejected" `Quick
            test_topology_disconnected_rejected;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "edge-core structure" `Quick test_edge_core_structure;
          Alcotest.test_case "delivery equivalence" `Quick
            test_fabric_delivery_equivalence;
          Alcotest.test_case "two-phase commit clean" `Quick
            test_fabric_two_phase_commit_clean;
          Alcotest.test_case "unsafe commit detects mixing" `Quick
            test_fabric_unsafe_commit_detects_mixing;
          Alcotest.test_case "flip closure" `Quick test_fabric_flip_closure;
          Alcotest.test_case "rejected ruleset changes nothing" `Quick
            test_fabric_rejected_ruleset_changes_nothing;
          Alcotest.test_case "unstamped VMAC has no copies" `Quick
            test_fabric_unstamped_vmac_has_no_copies;
          Alcotest.test_case "reach change flips" `Quick test_fabric_reach_change_flips;
          Alcotest.test_case "two-trunk walk allocation" `Quick
            test_fabric_two_trunk_walk_allocation;
          Alcotest.test_case "unchanged commit sends nothing" `Quick
            test_fabric_unchanged_commit_sends_nothing;
          Alcotest.test_case "commit skips unchanged" `Quick
            test_fabric_commit_skips_unchanged;
          Alcotest.test_case "sharding shrinks edges" `Quick
            test_fabric_sharding_shrinks_edges;
          Alcotest.test_case "steering drops counted" `Quick
            test_fabric_steering_drops_counted;
        ]
        @ qsuite
            [
              prop_sharded_matches_single;
              prop_churned_commits_consistent;
              prop_line_commits_consistent;
            ] );
    ]
