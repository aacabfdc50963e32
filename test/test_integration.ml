(* End-to-end integration tests over randomized workloads: packets are
   generated at participants' networks, tagged by border routers,
   processed by the fabric switch, and the deliveries are checked
   against BGP-level invariants the SDX must enforce (§4.1):

   - traffic is only ever delivered to a participant that exported a BGP
     route for the destination prefix (valid interdomain paths);
   - a participant never receives its own traffic back;
   - default traffic reaches the best route's next hop;
   - the incremental fast path and the background re-optimization agree. *)

open Sdx_net
open Sdx_bgp
open Sdx_ixp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let build_world ~seed ~participants ~prefixes =
  let rng = Rng.create ~seed in
  let w = Workload.build rng ~participants ~prefixes () in
  let runtime = Workload.runtime w in
  let net = Sdx_fabric.Network.create runtime in
  (w, runtime, net)

let random_probe rng (w : Workload.t) =
  let sender =
    (Rng.pick rng
       (List.filter
          (fun (p : Sdx_core.Participant.t) -> not (Sdx_core.Participant.is_remote p))
          (Sdx_core.Config.participants w.config)))
      .Sdx_core.Participant.asn
  in
  let prefix = Rng.pick rng w.universe in
  let packet =
    Packet.make
      ~src_ip:(Ipv4.of_int (0x0C000000 + Rng.int rng 0xFFFF))
      ~dst_ip:(Prefixes.host_in prefix)
      ~proto:(Rng.pick rng [ 6; 17 ])
      ~src_port:(Rng.int rng 60000)
      ~dst_port:(Rng.pick rng [ 80; 443; 8080; 22; 5000 ])
      ()
  in
  (sender, prefix, packet)

let test_delivery_respects_bgp () =
  let w, runtime, net = build_world ~seed:7 ~participants:25 ~prefixes:250 in
  let server = Sdx_core.Config.server w.config in
  let rng = Rng.create ~seed:70 in
  let delivered = ref 0 and dropped = ref 0 in
  for _ = 1 to 300 do
    let sender, prefix, packet = random_probe rng w in
    let deliveries = Sdx_fabric.Network.inject net ~from:sender packet in
    (match deliveries with
    | [] -> incr dropped
    | ds ->
        incr delivered;
        List.iter
          (fun (d : Sdx_fabric.Network.delivery) ->
            check_bool "not reflected to sender" false (Asn.equal d.receiver sender);
            (* The receiver must have announced a route for the prefix
               and export it to the sender. *)
            let feasible = Route_server.feasible server ~receiver:sender prefix in
            check_bool "receiver is a feasible next hop" true
              (List.exists
                 (fun (r : Route.t) -> Asn.equal r.learned_from d.receiver)
                 feasible))
          ds)
    done;
  ignore runtime;
  check_bool "probes were delivered" true (!delivered > 200);
  check_bool "some probes may drop" true (!dropped >= 0)

let test_default_traffic_follows_best () =
  let w, _runtime, net = build_world ~seed:8 ~participants:25 ~prefixes:250 in
  let server = Sdx_core.Config.server w.config in
  let rng = Rng.create ~seed:80 in
  (* Senders without outbound policies must always deliver to the best
     route's advertiser. *)
  let unpolicied =
    List.filter
      (fun (p : Sdx_core.Participant.t) ->
        p.outbound = [] && not (Sdx_core.Participant.is_remote p))
      (Sdx_core.Config.participants w.config)
  in
  check_bool "some unpolicied senders" true (unpolicied <> []);
  for _ = 1 to 200 do
    let sender = (Rng.pick rng unpolicied).Sdx_core.Participant.asn in
    let prefix = Rng.pick rng w.universe in
    let packet = Packet.make ~dst_ip:(Prefixes.host_in prefix) ~dst_port:22 () in
    match
      ( Sdx_fabric.Network.inject net ~from:sender packet,
        Route_server.best server ~receiver:sender prefix )
    with
    | [ d ], Some best ->
        check_bool "delivered to best advertiser" true
          (Asn.equal d.receiver best.learned_from)
    | [], None -> ()
    | [], Some _ -> Alcotest.fail "traffic with a route was dropped"
    | _ :: _, None -> Alcotest.fail "traffic without a route was delivered"
    | _ -> Alcotest.fail "unexpected multicast"
  done

let test_fast_path_matches_reoptimized () =
  let w, runtime, net = build_world ~seed:9 ~participants:20 ~prefixes:200 in
  let rng = Rng.create ~seed:90 in
  (* Apply a burst through the fast path... *)
  let updates = Workload.burst rng w ~size:15 in
  ignore (Sdx_core.Runtime.handle_burst runtime updates);
  Sdx_fabric.Network.sync net;
  let probes =
    List.init 150 (fun _ ->
        let sender, _, packet = random_probe rng w in
        (sender, packet))
  in
  let observe () =
    List.map
      (fun (sender, packet) ->
        List.map
          (fun (d : Sdx_fabric.Network.delivery) -> (d.receiver, d.receiver_port))
          (Sdx_fabric.Network.inject net ~from:sender packet))
      probes
  in
  let with_extras = observe () in
  check_bool "fast path rules present" true
    (Sdx_core.Runtime.extra_rule_count runtime > 0);
  (* ...then re-optimize in the background and compare behavior. *)
  ignore (Sdx_core.Runtime.reoptimize runtime);
  Sdx_fabric.Network.sync net;
  let after = observe () in
  check_bool "fast path = background recompilation" true (with_extras = after)

let test_withdrawal_failover_end_to_end () =
  let w, runtime, net = build_world ~seed:10 ~participants:20 ~prefixes:200 in
  let server = Sdx_core.Config.server w.config in
  (* Find a prefix with at least two advertisers and a sender that is
     neither of them. *)
  let all = Sdx_core.Config.participants w.config in
  let pick () =
    List.find_map
      (fun prefix ->
        match Route_server.candidates server prefix with
        | (r1 : Route.t) :: r2 :: _ ->
            let sender =
              List.find_opt
                (fun (p : Sdx_core.Participant.t) ->
                  (not (Sdx_core.Participant.is_remote p))
                  && (not (Asn.equal p.asn r1.learned_from))
                  && not (Asn.equal p.asn r2.Route.learned_from))
                all
            in
            Option.map (fun (s : Sdx_core.Participant.t) -> (prefix, s.asn)) sender
        | _ -> None)
      w.universe
  in
  match pick () with
  | None -> Alcotest.skip ()
  | Some (prefix, sender) ->
      let best_before =
        Option.get (Route_server.best server ~receiver:sender prefix)
      in
      let packet = Packet.make ~dst_ip:(Prefixes.host_in prefix) ~dst_port:22 () in
      (* Withdraw the best route; traffic must shift to the next
         candidate without waiting for re-optimization. *)
      ignore
        (Sdx_core.Runtime.withdraw runtime ~peer:best_before.learned_from prefix);
      Sdx_fabric.Network.sync net;
      let best_after =
        Option.get (Route_server.best server ~receiver:sender prefix)
      in
      check_bool "best actually changed" false
        (Asn.equal best_before.learned_from best_after.learned_from);
      (match Sdx_fabric.Network.inject net ~from:sender packet with
      | [ d ] ->
          check_bool "failover to new best" true
            (Asn.equal d.receiver best_after.learned_from)
      | _ -> Alcotest.fail "expected single delivery after failover")

let test_no_forwarding_loops () =
  (* §4.1: any packet entering the fabric either reaches a physical port
     or is dropped; re-injecting a delivered packet at the receiver must
     not bounce it back through the fabric to a third party forever.
     We verify the static property: every delivered packet carries the
     receiver's own port MAC, so the receiver consumes it. *)
  let w, _runtime, net = build_world ~seed:11 ~participants:15 ~prefixes:150 in
  let rng = Rng.create ~seed:110 in
  for _ = 1 to 200 do
    let sender, _, packet = random_probe rng w in
    List.iter
      (fun (d : Sdx_fabric.Network.delivery) ->
        let receiver = Sdx_core.Config.participant w.config d.receiver in
        let port = Sdx_core.Participant.port receiver d.receiver_port in
        check_bool "delivered frame addressed to the receiving port" true
          (Mac.equal d.packet.dst_mac port.mac))
      (Sdx_fabric.Network.inject net ~from:sender packet)
  done

let test_rule_counts_consistent () =
  let _, runtime, net = build_world ~seed:12 ~participants:15 ~prefixes:150 in
  let installed =
    Sdx_openflow.Table.size
      (Sdx_openflow.Switch.table (Sdx_fabric.Network.switch net) 0)
  in
  check_int "switch holds the whole classifier" (Sdx_core.Runtime.rule_count runtime)
    installed

let test_scales_with_multiport_and_remote () =
  (* Mixed hand-built config: a multi-port sender with a policy, plus a
     remote participant doing anycast load balancing, all at once. *)
  let open Sdx_core in
  let open Sdx_policy in
  let ip = Ipv4.of_string and pfx = Prefix.of_string in
  let a =
    Participant.make ~asn:(Asn.of_int 1)
      ~ports:
        [
          (Mac.of_string "0a:00:00:00:01:01", ip "172.9.1.1");
          (Mac.of_string "0a:00:00:00:01:02", ip "172.9.1.2");
        ]
      ~outbound:[ Ppolicy.fwd (Pred.dst_port 80) (Ppolicy.Peer (Asn.of_int 2)) ]
      ()
  in
  let b =
    Participant.make ~asn:(Asn.of_int 2)
      ~ports:[ (Mac.of_string "0a:00:00:00:02:01", ip "172.9.2.1") ]
      ()
  in
  let c =
    Participant.make ~asn:(Asn.of_int 3)
      ~ports:[ (Mac.of_string "0a:00:00:00:03:01", ip "172.9.3.1") ]
      ()
  in
  let anycast = pfx "74.125.1.0/24" in
  let tenant =
    Participant.make ~asn:(Asn.of_int 4) ~ports:[]
      ~inbound:
        [
          Ppolicy.rewrite
            (Pred.dst_ip (Prefix.make (ip "74.125.1.1") 32))
            (Mods.make ~dst_ip:(ip "44.0.0.9") ());
        ]
      ~originated:[ anycast ] ()
  in
  let config = Config.make [ a; b; c; tenant ] in
  ignore (Config.announce config ~peer:(Asn.of_int 2) ~port:0 (pfx "50.0.0.0/16"));
  ignore (Config.announce config ~peer:(Asn.of_int 3) ~port:0 (pfx "50.0.0.0/16"));
  ignore (Config.announce config ~peer:(Asn.of_int 3) ~port:0 (pfx "44.0.0.0/16"));
  let runtime = Runtime.create config in
  let net = Sdx_fabric.Network.create runtime in
  (* Multi-port sender's web traffic diverts to B. *)
  (match
     Sdx_fabric.Network.inject net ~from:(Asn.of_int 1)
       (Packet.make ~dst_ip:(ip "50.0.1.1") ~dst_port:80 ())
   with
  | [ d ] -> check_bool "diverted" true (Asn.equal d.receiver (Asn.of_int 2))
  | _ -> Alcotest.fail "diversion failed");
  (* Anycast traffic terminates at the tenant's policy: rewritten and
     re-resolved toward C (which announces 44.0.0.0/16). *)
  match
    Sdx_fabric.Network.inject net ~from:(Asn.of_int 1)
      (Packet.make ~dst_ip:(ip "74.125.1.1") ~dst_port:80 ())
  with
  | [ d ] ->
      check_bool "rewritten to instance" true
        (Ipv4.equal d.packet.dst_ip (ip "44.0.0.9"));
      check_bool "delivered via C" true (Asn.equal d.receiver (Asn.of_int 3))
  | _ -> Alcotest.fail "anycast load balance failed"

(* ------------------------------------------------------------------ *)
(* Randomized equivalence: for arbitrary small exchanges, the optimized
   compiler, the naive Pyretic-style composition, and the multi-switch
   split all forward identically.                                      *)

let pool_prefix i = Prefix.make (Ipv4.of_int (0x1E000000 + (i lsl 16))) 16

(* A random exchange derived from one seed: 3-8 participants with random
   announcements and random (valid) policies. *)
let build_random_config seed =
  let rng = Rng.create ~seed in
  let n = 3 + Rng.int rng 5 in
  let asns = List.init n (fun i -> Asn.of_int (100 * (i + 1))) in
  let ports_of i =
    let count = if Rng.bool rng ~p:0.25 then 2 else 1 in
    List.init count (fun j ->
        ( Mac.of_int (0x0A_00_00_00_00_00 + (i * 16) + j),
          Ipv4.of_int (0x0E000000 + (i * 256) + j + 1) ))
  in
  let random_pred () =
    match Rng.int rng 4 with
    | 0 -> Sdx_policy.Pred.dst_port (Rng.pick rng [ 80; 443 ])
    | 1 -> Sdx_policy.Pred.src_ip (Prefix.of_string (Rng.pick rng [ "0.0.0.0/1"; "128.0.0.0/1" ]))
    | 2 -> Sdx_policy.Pred.proto (Rng.pick rng [ 6; 17 ])
    | _ ->
        Sdx_policy.Pred.and_
          (Sdx_policy.Pred.dst_port (Rng.pick rng [ 80; 443 ]))
          (Sdx_policy.Pred.proto 6)
  in
  let participants =
    List.mapi
      (fun i asn ->
        let others = List.filter (fun a -> not (Asn.equal a asn)) asns in
        let ports = ports_of i in
        let outbound =
          List.concat
            (List.init (Rng.int rng 3) (fun _ ->
                 let target =
                   if Rng.bool rng ~p:0.8 then
                     Sdx_core.Ppolicy.Peer (Rng.pick rng others)
                   else Sdx_core.Ppolicy.Drop
                 in
                 [ Sdx_core.Ppolicy.fwd (random_pred ()) target ]))
        in
        let inbound =
          List.concat
            (List.init (Rng.int rng 2) (fun _ ->
                 [
                   Sdx_core.Ppolicy.fwd (random_pred ())
                     (Sdx_core.Ppolicy.Phys (Rng.int rng (List.length ports)));
                 ]))
        in
        Sdx_core.Participant.make ~asn ~ports ~inbound ~outbound ())
      asns
  in
  let config = Sdx_core.Config.make participants in
  (* Random announcements over a small prefix pool; ~30% dual-homed. *)
  List.iteri
    (fun i prefix_index ->
      ignore i;
      let prefix = pool_prefix prefix_index in
      let owner = Rng.pick rng asns in
      ignore
        (Sdx_core.Config.announce config ~peer:owner ~port:0
           ~as_path:[ owner; Asn.of_int 65001 ]
           prefix);
      if Rng.bool rng ~p:0.3 then begin
        let backup = Rng.pick rng asns in
        if not (Asn.equal backup owner) then
          ignore
            (Sdx_core.Config.announce config ~peer:backup ~port:0
               ~as_path:[ backup; Asn.of_int 65001; Asn.of_int 65002 ]
               prefix)
      end)
    (List.init 8 Fun.id);
  (config, asns)

(* Probe packets as the senders' routers would tag them. *)
let tagged_probes runtime asns =
  let config = Sdx_core.Runtime.config runtime in
  let server = Sdx_core.Config.server config in
  let arp = Sdx_core.Runtime.arp runtime in
  List.concat_map
    (fun sender ->
      match Sdx_core.Config.participant_opt config sender with
      | Some p when not (Sdx_core.Participant.is_remote p) ->
          List.concat_map
            (fun prefix_index ->
              let prefix = pool_prefix prefix_index in
              let dst = Prefix.host prefix 1 in
              match Route_server.lookup_best server ~receiver:sender dst with
              | None -> []
              | Some (covering, _) -> (
                  match
                    Sdx_core.Runtime.announcement runtime ~receiver:sender covering
                  with
                  | None -> []
                  | Some route -> (
                      match Sdx_arp.Responder.query arp route.Route.next_hop with
                      | None -> []
                      | Some tag ->
                          List.concat_map
                            (fun dst_port ->
                              List.map
                                (fun src ->
                                  Packet.make
                                    ~port:(Sdx_core.Config.switch_port config sender 0)
                                    ~dst_mac:tag ~src_ip:(Ipv4.of_string src)
                                    ~dst_ip:dst ~dst_port ())
                                [ "10.0.0.1"; "200.0.0.1" ])
                            [ 80; 443; 22 ])))
            (List.init 8 Fun.id)
      | _ -> [])
    asns

let test_random_naive_optimized_equivalence () =
  for seed = 1 to 25 do
    let config, asns = build_random_config seed in
    let opt = Sdx_core.Runtime.create config in
    let copt = Sdx_core.Runtime.classifier opt in
    let cnaive =
      Sdx_oracle.Literal.compose (Sdx_core.Runtime.compiled opt) config
    in
    List.iter
      (fun pkt ->
        if
          not
            (Sdx_policy.Classifier.eval copt pkt
            = Sdx_policy.Classifier.eval cnaive pkt)
        then
          Alcotest.failf "seed %d: naive and optimized disagree on %a" seed
            Packet.pp pkt)
      (tagged_probes opt asns)
  done

(* A random line of 2-3 switches, committed through the production
   fabric, delivers what the logical classifier does, with no
   mixed-version packet and no loop over its installed tables. *)
let test_random_topology_equivalence () =
  for seed = 1 to 25 do
    let config, asns = build_random_config seed in
    let runtime = Sdx_core.Runtime.create config in
    let classifier = Sdx_core.Runtime.classifier runtime in
    let rng = Rng.create ~seed:(seed * 7) in
    let switch_count = 2 + Rng.int rng 2 in
    let switches = List.init switch_count Fun.id in
    let links = List.init (switch_count - 1) (fun i -> (i, i + 1)) in
    let port_home =
      List.init
        (Sdx_core.Config.port_count config)
        (fun i -> (i + 1, Rng.int rng switch_count))
    in
    let fabric =
      Sdx_fabric.Fabric.create
        (Sdx_fabric.Topology.create ~switches ~links ~port_home)
    in
    ignore (Sdx_fabric.Fabric.commit fabric (Sdx_core.Runtime.flows runtime));
    let keep_real pkts =
      Packet.Set.elements
        (Packet.Set.of_list
           (List.filter
              (fun (p : Packet.t) -> p.port <> Sdx_core.Compile.blackhole_port)
              pkts))
    in
    List.iter
      (fun pkt ->
        let big = keep_real (Sdx_policy.Classifier.eval classifier pkt) in
        let split = keep_real (Sdx_fabric.Fabric.process fabric pkt) in
        if big <> split then
          Alcotest.failf "seed %d: distributed fabric diverges on %a" seed
            Packet.pp pkt)
      (tagged_probes runtime asns);
    check_int
      (Printf.sprintf "seed %d: no mixed-version packets" seed)
      0
      (Sdx_fabric.Fabric.mixed_version_packets fabric);
    match
      List.filter
        (fun (f : Sdx_check.Check.finding) ->
          f.Sdx_check.Check.severity = Sdx_check.Check.Error)
        (Sdx_check.Check.fabric_loops fabric)
    with
    | [] -> ()
    | f :: _ ->
        Alcotest.failf "seed %d: %a" seed Sdx_check.Check.pp_finding f
  done

(* Failure injection: a session reset withdraws a peer's whole table; the
   SDX must reroute everything that has an alternative and drop the rest,
   with no stale diversions. *)
let test_session_reset_end_to_end () =
  let w, runtime, net = build_world ~seed:13 ~participants:20 ~prefixes:150 in
  let server = Sdx_core.Config.server w.config in
  (* Reset the biggest announcer's session. *)
  let victim =
    (List.hd w.specs).Population.asn
  in
  let announced = Route_server.prefixes_of server victim in
  check_bool "victim announces" true (announced <> []);
  let withdrawals = List.map (Update.withdraw ~peer:victim) announced in
  ignore (Sdx_core.Runtime.handle_burst runtime withdrawals);
  Sdx_fabric.Network.sync net;
  check_int "table flushed" 0 (List.length (Route_server.prefixes_of server victim));
  (* Probe every formerly-announced prefix from some other participant. *)
  let sender =
    (List.find
       (fun (s : Population.spec) -> not (Asn.equal s.asn victim))
       w.specs)
      .asn
  in
  List.iter
    (fun prefix ->
      let pkt = Packet.make ~dst_ip:(Prefixes.host_in prefix) ~dst_port:22 () in
      let deliveries = Sdx_fabric.Network.inject net ~from:sender pkt in
      match (deliveries, Route_server.best server ~receiver:sender prefix) with
      | [], None -> ()  (* no alternative: correctly dropped *)
      | [ d ], Some best ->
          check_bool "rerouted to surviving advertiser" true
            (Asn.equal d.receiver best.Route.learned_from);
          check_bool "never the reset peer" false (Asn.equal d.receiver victim)
      | [], Some _ -> Alcotest.fail "alternative exists but traffic dropped"
      | _ :: _, None -> Alcotest.fail "traffic delivered without any route"
      | _ -> Alcotest.fail "unexpected multicast")
    announced

(* Structural invariants at a larger scale: a 150-participant workload
   compiles quickly and every rule respects the layered-classifier
   contract. *)
let test_large_workload_invariants () =
  let rng = Rng.create ~seed:99 in
  let w = Workload.build rng ~participants:150 ~prefixes:1500 () in
  let runtime = Workload.runtime w in
  let stats = Sdx_core.Compile.stats (Sdx_core.Runtime.compiled runtime) in
  check_bool "groups found" true (stats.group_count > 50);
  check_bool "compiles fast" true (stats.elapsed_s < 10.0);
  let classifier = Sdx_core.Runtime.classifier runtime in
  let n = List.length classifier in
  check_int "stats match classifier" stats.rule_count n;
  List.iteri
    (fun i (r : Sdx_policy.Classifier.rule) ->
      if i < n - 1 then begin
        (* Every non-final rule is pinned and every action relocates. *)
        check_bool "rule pinned" true
          (Option.is_some r.pattern.Sdx_policy.Pattern.port
          || Option.is_some r.pattern.Sdx_policy.Pattern.dst_mac);
        check_bool "no empty actions" true (r.action <> []);
        List.iter
          (fun (m : Sdx_policy.Mods.t) ->
            check_bool "action relocates" true (Option.is_some m.port))
          r.action
      end)
    classifier;
  (* Distinct groups have distinct VNHs and VMACs, all ARP-resolvable. *)
  let groups = Sdx_core.Compile.groups (Sdx_core.Runtime.compiled runtime) in
  let vnhs = List.map (fun (g : Sdx_core.Compile.group) -> g.vnh) groups in
  check_int "vnhs distinct" (List.length groups)
    (List.length (List.sort_uniq Ipv4.compare vnhs));
  let arp = Sdx_core.Runtime.arp runtime in
  check_bool "all vnhs resolve" true
    (List.for_all (fun v -> Option.is_some (Sdx_arp.Responder.query arp v)) vnhs);
  (* Flow priorities are strictly descending within each band. *)
  let flows = Sdx_core.Runtime.flows runtime in
  check_int "flows match rules" n (List.length flows);
  check_int "priorities unique" n
    (List.length
       (List.sort_uniq Int.compare
          (List.map (fun (f : Sdx_openflow.Flow.t) -> f.priority) flows)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sdx_integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "deliveries respect BGP" `Quick test_delivery_respects_bgp;
          Alcotest.test_case "default traffic follows best" `Quick
            test_default_traffic_follows_best;
          Alcotest.test_case "fast path = reoptimized" `Quick
            test_fast_path_matches_reoptimized;
          Alcotest.test_case "withdrawal failover" `Quick
            test_withdrawal_failover_end_to_end;
          Alcotest.test_case "no forwarding loops" `Quick test_no_forwarding_loops;
          Alcotest.test_case "rule counts consistent" `Quick test_rule_counts_consistent;
          Alcotest.test_case "multiport + remote anycast" `Quick
            test_scales_with_multiport_and_remote;
        ] );
      ( "randomized",
        [
          Alcotest.test_case "naive = optimized on random exchanges" `Slow
            test_random_naive_optimized_equivalence;
          Alcotest.test_case "big switch = distributed fabric" `Slow
            test_random_topology_equivalence;
          Alcotest.test_case "session reset reroutes" `Quick
            test_session_reset_end_to_end;
          Alcotest.test_case "large workload invariants" `Slow
            test_large_workload_invariants;
        ] );
    ]
