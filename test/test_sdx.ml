(* Tests for the SDX core: FEC computation, VNH allocation, participant
   policies, configuration, the compiler (against the paper's Figure 1),
   the incremental fast path, and the runtime. *)

open Sdx_net
open Sdx_bgp
open Sdx_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let pfx = Prefix.of_string
let ip = Ipv4.of_string

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Fec (the naive grouping's partition, in the reference compiler)     *)

module Fec = Sdx_oracle.Fec

let test_fec_paper_example () =
  (* §4.2's three passes: pass-1 sets {p1,p2,p3} and {p1,p2,p3,p4};
     pass-2 defaults p1,p2,p4 -> C and p3 -> B; result {p1,p2},{p3},{p4}. *)
  let p1 = Fig1.p1 and p2 = Fig1.p2 and p3 = Fig1.p3 and p4 = Fig1.p4 in
  let sets =
    [ Prefix.Set.of_list [ p1; p2; p3 ]; Prefix.Set.of_list [ p1; p2; p3; p4 ] ]
  in
  let default_key p = if Prefix.equal p p3 then 1 else 0 in
  let groups = Fec.partition ~sets ~default_key in
  check_int "three groups" 3 (List.length groups);
  check_bool "p1 p2 together" true (List.mem [ p1; p2 ] groups);
  check_bool "p3 alone" true (List.mem [ p3 ] groups);
  check_bool "p4 alone" true (List.mem [ p4 ] groups);
  check_bool "valid" true (Fec.is_valid_partition ~sets ~default_key groups)

let test_fec_untouched_excluded () =
  let p1 = Fig1.p1 and p5 = Fig1.p5 in
  let sets = [ Prefix.Set.of_list [ p1 ] ] in
  let groups = Fec.partition ~sets ~default_key:(fun _ -> 0) in
  check_int "one group" 1 (List.length groups);
  check_bool "p5 not grouped" false (List.exists (List.mem p5) groups)

let test_fec_empty () =
  check_int "no sets no groups" 0
    (List.length (Fec.partition ~sets:[] ~default_key:(fun _ -> 0)));
  check_int "empty sets no groups" 0
    (Fec.group_count ~sets:[ Prefix.Set.empty ] ~default_key:(fun _ -> 0))

let test_fec_default_key_splits () =
  let p1 = Fig1.p1 and p2 = Fig1.p2 in
  let sets = [ Prefix.Set.of_list [ p1; p2 ] ] in
  let same = Fec.partition ~sets ~default_key:(fun _ -> 0) in
  check_int "same key merges" 1 (List.length same);
  let split =
    Fec.partition ~sets ~default_key:(fun p -> if Prefix.equal p p1 then 1 else 2)
  in
  check_int "distinct keys split" 2 (List.length split)

let gen_small_sets =
  let open QCheck2.Gen in
  let universe = Array.init 16 (fun i -> Prefix.make (Ipv4.of_int (i * 256)) 24) in
  let gen_set =
    let* members = list_size (int_range 0 10) (int_range 0 15) in
    return (Prefix.Set.of_list (List.map (fun i -> universe.(i)) members))
  in
  list_size (int_range 0 6) gen_set

let prop_fec_valid =
  QCheck2.Test.make ~name:"partition satisfies the MDS properties" ~count:500
    gen_small_sets
    (fun sets ->
      let default_key p = Ipv4.to_int (Prefix.network p) / 1024 mod 3 in
      Fec.is_valid_partition ~sets ~default_key (Fec.partition ~sets ~default_key))

let prop_fec_count_consistent =
  QCheck2.Test.make ~name:"group_count = |partition|" ~count:500 gen_small_sets
    (fun sets ->
      let default_key _ = 0 in
      Fec.group_count ~sets ~default_key
      = List.length (Fec.partition ~sets ~default_key))

(* ------------------------------------------------------------------ *)
(* Vnh                                                                 *)

let test_vnh_fresh_distinct () =
  let v = Vnh.create () in
  let a1, m1 = Vnh.fresh v in
  let a2, m2 = Vnh.fresh v in
  check_bool "distinct ips" false (Ipv4.equal a1 a2);
  check_bool "distinct macs" false (Mac.equal m1 m2);
  check_int "allocated" 2 (Vnh.allocated v);
  check_bool "in pool" true (Vnh.is_virtual v a1);
  check_bool "outside pool" false (Vnh.is_virtual v (ip "10.0.0.1"))

let test_vnh_reset_and_exhaustion () =
  let v = Vnh.create ~pool:(pfx "172.16.0.0/30") () in
  let a1, _ = Vnh.fresh v in
  ignore (Vnh.fresh v);
  ignore (Vnh.fresh v);
  check_bool "exhausted" true
    (try
       ignore (Vnh.fresh v);
       false
     with Failure _ -> true);
  Vnh.reset v;
  let a1', _ = Vnh.fresh v in
  check_bool "reset reuses" true (Ipv4.equal a1 a1')

(* ------------------------------------------------------------------ *)
(* Ppolicy                                                             *)

let test_ppolicy_builders () =
  let open Sdx_policy in
  let c = Ppolicy.fwd (Pred.dst_port 80) (Ppolicy.Peer Fig1.asn_b) in
  check_bool "no mods" true (Mods.is_identity c.mods);
  let r = Ppolicy.rewrite Pred.True (Mods.make ~dst_ip:(ip "1.2.3.4") ()) in
  check_bool "rewrite targets default" true (r.target = Ppolicy.Default);
  let pol = [ c; r; Ppolicy.fwd Pred.True (Ppolicy.Peer Fig1.asn_b) ] in
  check_int "clause count" 3 (Ppolicy.clause_count pol);
  check_int "distinct targets" 2 (List.length (Ppolicy.targets pol));
  check_bool "peers" true (Ppolicy.peers pol = [ Fig1.asn_b ])

(* ------------------------------------------------------------------ *)
(* Config                                                              *)

let test_config_ports () =
  let config = Fig1.make_config () in
  check_int "A port" 1 (Config.switch_port config Fig1.asn_a 0);
  check_int "B first port" 2 (Config.switch_port config Fig1.asn_b 0);
  check_int "B second port" 3 (Config.switch_port config Fig1.asn_b 1);
  check_int "port count" 5 (Config.port_count config);
  check_bool "ports of B" true (Config.switch_ports_of config Fig1.asn_b = [ 2; 3 ]);
  let owner, port = Config.owner_of_port config 3 in
  check_bool "owner of 3" true (Asn.equal owner.Participant.asn Fig1.asn_b);
  check_int "port index" 1 port.Participant.index;
  match Config.port_of_next_hop config (ip "172.0.0.3") with
  | Some (p, port, n) ->
      check_bool "next hop owner" true (Asn.equal p.Participant.asn Fig1.asn_b);
      check_int "next hop index" 1 port.Participant.index;
      check_int "next hop switch port" 3 n
  | None -> Alcotest.fail "port_of_next_hop failed"

let test_config_duplicates_rejected () =
  check_bool "duplicate asn" true
    (try
       ignore (Config.make [ Fig1.participant_a; Fig1.participant_a ]);
       false
     with Invalid_argument _ -> true);
  let clash =
    Participant.make ~asn:(Asn.of_int 999)
      ~ports:[ (Mac.of_string "ee:ee:ee:ee:ee:01", ip "172.0.0.1") ]
      ()
  in
  check_bool "duplicate port ip" true
    (try
       ignore (Config.make [ Fig1.participant_a; clash ]);
       false
     with Invalid_argument _ -> true)

(* Port MACs in the blocks the SDX mints addresses from are rejected,
   naming the participant and the MAC: the trunk-tag octets and the VMAC
   block, whose last index below 2^32 is still inside it. *)
let test_config_reserved_macs_rejected () =
  let with_mac s =
    Participant.make ~asn:(Asn.of_int 999) ~ports:[ (Mac.of_string s, ip "172.7.0.1") ] ()
  in
  List.iter
    (fun s ->
      match Config.make [ Fig1.participant_c; with_mac s ] with
      | _ -> Alcotest.failf "port MAC %s accepted" s
      | exception Invalid_argument msg ->
          check_bool (s ^ " names the participant and the MAC") true
            (contains_sub msg "AS999" && contains_sub msg s))
    [ "06:aa:aa:aa:aa:01"; "0e:aa:aa:aa:aa:01"; "02:00:00:00:00:02"; "02:00:ff:ff:ff:ff" ];
  List.iter
    (fun s ->
      check_bool (s ^ " accepted") true
        (try
           ignore (Config.make [ Fig1.participant_c; with_mac s ]);
           true
         with Invalid_argument _ -> false))
    [ "02:01:00:00:00:00"; "0a:00:00:00:00:01"; "16:00:00:00:00:01" ]

let test_config_policy_validation () =
  let mk ?inbound ?outbound () =
    Participant.make ~asn:(Asn.of_int 999)
      ~ports:[ (Mac.of_string "0a:0e:0e:0e:0e:01", ip "172.7.0.1") ]
      ?inbound ?outbound ()
  in
  (* A policy-free anchor participant (Fig1's AS A would itself fail
     validation here: its policy references AS B and AS C). *)
  let anchor = Fig1.participant_c in
  let rejects p =
    try
      ignore (Config.make [ anchor; p ]);
      false
    with Invalid_argument _ -> true
  in
  (* Outbound to a peer that is not at the exchange. *)
  check_bool "unknown peer" true
    (rejects
       (mk ~outbound:[ Ppolicy.fwd Sdx_policy.Pred.True (Ppolicy.Peer (Asn.of_int 4242)) ] ()));
  (* Inbound may not forward to a peer. *)
  check_bool "inbound peer" true
    (rejects (mk ~inbound:[ Ppolicy.fwd Sdx_policy.Pred.True (Ppolicy.Peer Fig1.asn_a) ] ()));
  (* Own-port index out of range. *)
  check_bool "bad phys port" true
    (rejects (mk ~inbound:[ Ppolicy.fwd Sdx_policy.Pred.True (Ppolicy.Phys 7) ] ()));
  (* Steering to a portless (remote) host. *)
  let remote = Participant.make ~asn:(Asn.of_int 888) ~ports:[] () in
  check_bool "steer to remote" true
    (try
       ignore
         (Config.make
            [
              anchor;
              remote;
              mk ~outbound:[ Ppolicy.steer Sdx_policy.Pred.True (Asn.of_int 888) ] ();
            ]);
       false
     with Invalid_argument _ -> true);
  (* Valid policies still pass. *)
  check_bool "valid accepted" true
    (try
       ignore
         (Config.make
            [
              anchor;
              mk ~outbound:[ Ppolicy.fwd Sdx_policy.Pred.True (Ppolicy.Peer Fig1.asn_c) ] ();
            ]);
       true
     with Invalid_argument _ -> false)

let test_config_unknown_lookups () =
  let config = Fig1.make_config () in
  check_bool "participant_opt none" true
    (Config.participant_opt config (Asn.of_int 12345) = None);
  check_bool "owner_of_port raises" true
    (try
       ignore (Config.owner_of_port config 99);
       false
     with Not_found -> true)

(* ------------------------------------------------------------------ *)
(* Compile: the Figure 1 scenario                                      *)

let test_compile_figure1_groups () =
  let runtime = Fig1.make_runtime () in
  let compiled = Runtime.compiled runtime in
  let groups = Compile.groups compiled in
  check_int "three groups" 3 (List.length groups);
  let sets = List.map (fun (g : Compile.group) -> g.prefixes) groups in
  check_bool "p1 p2 together" true (List.mem [ Fig1.p1; Fig1.p2 ] sets);
  check_bool "p3 alone" true (List.mem [ Fig1.p3 ] sets);
  check_bool "p4 alone" true (List.mem [ Fig1.p4 ] sets);
  check_bool "p5 ungrouped" true (Compile.group_of_prefix compiled Fig1.p5 = None);
  (* Distinct VNH/VMAC per group, registered in ARP. *)
  let arp = Compile.arp compiled in
  List.iter
    (fun (g : Compile.group) ->
      match Sdx_arp.Responder.query arp g.vnh with
      | Some m -> check_bool "arp binds vnh to vmac" true (Mac.equal m g.vmac)
      | None -> Alcotest.fail "missing ARP binding")
    groups;
  check_int "distinct vnhs" 3
    (List.length
       (List.sort_uniq Ipv4.compare (List.map (fun (g : Compile.group) -> g.vnh) groups)))

let test_compile_figure1_announcements () =
  let runtime = Fig1.make_runtime () in
  let compiled = Runtime.compiled runtime in
  let config = Runtime.config runtime in
  (* Grouped prefixes are re-advertised with their VNH... *)
  (match Runtime.announcement runtime ~receiver:Fig1.asn_a Fig1.p1 with
  | Some r ->
      check_bool "p1 via vnh" true
        (match Compile.group_of_prefix compiled Fig1.p1 with
        | Some g -> Ipv4.equal r.next_hop g.vnh
        | None -> false)
  | None -> Alcotest.fail "no announcement for p1");
  (* ...while default-only prefixes keep the real next hop. *)
  (match Runtime.announcement runtime ~receiver:Fig1.asn_a Fig1.p5 with
  | Some r -> check_bool "p5 untouched" true (Ipv4.equal r.next_hop (ip "172.0.0.5"))
  | None -> Alcotest.fail "no announcement for p5");
  (* B gets no announcement for p5?  It does: D exports to everyone. *)
  check_bool "b sees p5" true
    (Option.is_some (Compile.announcement compiled config ~receiver:Fig1.asn_b Fig1.p5))

let expect_delivery runtime ~sender ~src ~dst ~dst_port expected =
  match
    Fig1.fabric_packet runtime ~sender ~src_ip:src ~dst_ip:dst ~dst_port ()
  with
  | None -> Alcotest.fail "no route for crafted packet"
  | Some pkt -> (
      match (Fig1.deliveries runtime pkt, expected) with
      | [ (got_asn, got_port) ], Some (want_asn, want_port) ->
          check_bool "receiver" true (Asn.equal got_asn want_asn);
          check_int "receiver port" want_port got_port
      | [], None -> ()
      | got, _ ->
          Alcotest.failf "unexpected deliveries (%d)" (List.length got))

let test_compile_figure1_forwarding () =
  let runtime = Fig1.make_runtime () in
  let a = Fig1.asn_a in
  (* Web traffic to p1 diverts to B, split across B's ports by source. *)
  expect_delivery runtime ~sender:a ~src:"10.0.0.1" ~dst:"20.0.1.9" ~dst_port:80
    (Some (Fig1.asn_b, 0));
  expect_delivery runtime ~sender:a ~src:"192.168.0.1" ~dst:"20.0.1.9"
    ~dst_port:80
    (Some (Fig1.asn_b, 1));
  (* HTTPS to p4 diverts to C. *)
  expect_delivery runtime ~sender:a ~src:"10.0.0.1" ~dst:"20.0.4.9" ~dst_port:443
    (Some (Fig1.asn_c, 0));
  (* B exports no route for p4, so web traffic to p4 follows default (C). *)
  expect_delivery runtime ~sender:a ~src:"10.0.0.1" ~dst:"20.0.4.9" ~dst_port:80
    (Some (Fig1.asn_c, 0));
  (* Non-web, non-https traffic to p1 follows the default to C. *)
  expect_delivery runtime ~sender:a ~src:"10.0.0.1" ~dst:"20.0.1.9" ~dst_port:9999
    (Some (Fig1.asn_c, 0));
  (* p5 has no group: default forwarding to D via the real MAC. *)
  expect_delivery runtime ~sender:a ~src:"10.0.0.1" ~dst:"20.0.5.9" ~dst_port:9999
    (Some (Fig1.asn_d, 0))

let test_compile_rule_shape_invariants () =
  let runtime = Fig1.make_runtime () in
  let classifier = Runtime.classifier runtime in
  let rules = List.length classifier in
  check_bool "has rules" true (rules > 5);
  (* Every non-final forwarding rule is pinned to an in-port or a
     destination MAC, and every action atom relocates the packet. *)
  List.iteri
    (fun i (r : Sdx_policy.Classifier.rule) ->
      if i < rules - 1 then begin
        check_bool "pinned" true
          (Option.is_some r.pattern.Sdx_policy.Pattern.port
          || Option.is_some r.pattern.Sdx_policy.Pattern.dst_mac);
        List.iter
          (fun (m : Sdx_policy.Mods.t) ->
            check_bool "action relocates" true (Option.is_some m.port))
          r.action
      end
      else check_bool "final rule drops" true (r.action = []))
    classifier

let test_compile_stats () =
  let runtime = Fig1.make_runtime () in
  let stats = Compile.stats (Runtime.compiled runtime) in
  check_int "groups in stats" 3 stats.group_count;
  check_int "rule count matches" stats.rule_count
    (Sdx_policy.Classifier.rule_count (Runtime.classifier runtime));
  check_bool "memoization fired" true (stats.memo_hits > 0);
  check_bool "timed" true (stats.elapsed_s >= 0.0)

(* The literal Pyretic composition (the reference compiler's) and the
   optimized compilation agree on every tagged packet. *)
let test_naive_optimized_equivalent () =
  let config = Fig1.make_config () in
  let opt = Runtime.create config in
  let copt = Runtime.classifier opt in
  let cnaive = Sdx_oracle.Literal.compose (Runtime.compiled opt) config in
  let dsts =
    [ "20.0.1.9"; "20.0.2.9"; "20.0.3.9"; "20.0.4.9"; "20.0.5.9" ]
  in
  let srcs = [ "10.0.0.1"; "200.0.0.1" ] in
  let ports = [ 80; 443; 22 ] in
  let senders = [ Fig1.asn_a; Fig1.asn_b; Fig1.asn_c; Fig1.asn_d ] in
  List.iter
    (fun sender ->
      List.iter
        (fun dst ->
          List.iter
            (fun src ->
              List.iter
                (fun dst_port ->
                  match
                    Fig1.fabric_packet opt ~sender ~src_ip:src ~dst_ip:dst
                      ~dst_port ()
                  with
                  | None -> ()
                  | Some pkt ->
                      check_bool "naive = optimized" true
                        (Sdx_policy.Classifier.eval copt pkt
                        = Sdx_policy.Classifier.eval cnaive pkt))
                ports)
            srcs)
        dsts)
    senders

(* The in-switch two-table variant of Figure 2: untagged ingress through
   (tagging table, policy table) behaves exactly like router-tagged
   ingress through the policy table alone. *)
let test_in_switch_tagging_equivalent () =
  let runtime = Fig1.make_runtime () in
  let config = Runtime.config runtime in
  let compiled = Runtime.compiled runtime in
  let tagging = Compile.in_switch_tagging_table compiled config in
  check_bool "one rule per announced prefix" true
    (Sdx_policy.Classifier.rule_count tagging
    >= Route_server.prefix_count (Config.server config));
  let sw = Sdx_openflow.Switch.create ~tables:2 () in
  Sdx_openflow.Switch.install_classifier sw ~table:0 tagging;
  Sdx_openflow.Switch.install_classifier sw ~table:1 (Runtime.classifier runtime);
  List.iter
    (fun (src, dst, dst_port) ->
      (* Router-tagged packet through the single-table pipeline... *)
      let tagged =
        Fig1.fabric_packet runtime ~sender:Fig1.asn_a ~src_ip:src ~dst_ip:dst
          ~dst_port ()
      in
      match tagged with
      | None -> ()
      | Some pkt ->
          let single =
            Sdx_policy.Classifier.eval (Runtime.classifier runtime) pkt
          in
          (* ...vs the raw, untagged packet through the two tables. *)
          let raw = { pkt with dst_mac = Mac.zero } in
          let two_table = Sdx_openflow.Switch.process sw raw in
          check_bool
            (Printf.sprintf "two-table = router-tagged for %s:%d" dst dst_port)
            true (two_table = single))
    [
      ("10.0.0.1", "20.0.1.9", 80);
      ("192.168.0.1", "20.0.1.9", 80);
      ("10.0.0.1", "20.0.4.9", 443);
      ("10.0.0.1", "20.0.4.9", 80);
      ("10.0.0.1", "20.0.1.9", 9999);
      ("10.0.0.1", "20.0.5.9", 9999);
      ("10.0.0.1", "20.0.3.9", 22);
    ]

(* ------------------------------------------------------------------ *)
(* Incremental fast path                                               *)

let test_incremental_withdraw_stops_diversion () =
  let runtime = Fig1.make_runtime () in
  let before =
    Option.get (Runtime.announcement runtime ~receiver:Fig1.asn_a Fig1.p1)
  in
  (* Withdraw B's route for p1: A's web traffic must stop diverting. *)
  let stats = Runtime.withdraw runtime ~peer:Fig1.asn_b Fig1.p1 in
  check_bool "best unchanged but feasibility changed" true stats.best_changed;
  (* p1 leaves its class (B's clause no longer covers it).  Whether that
     takes fresh rules depends on where it lands: migrating into an
     already-compiled class needs none, so assert the rebind itself —
     the re-advertised VNH changed — not a rule install. *)
  let after =
    Option.get (Runtime.announcement runtime ~receiver:Fig1.asn_a Fig1.p1)
  in
  check_bool "rebound to a different class" false
    (Ipv4.equal before.Route.next_hop after.Route.next_hop);
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
    ~dst_port:80
    (Some (Fig1.asn_c, 0))

let test_incremental_best_shift () =
  let runtime = Fig1.make_runtime () in
  (* Withdraw C's route for p1: the default shifts to B. *)
  ignore (Runtime.withdraw runtime ~peer:Fig1.asn_c Fig1.p1);
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
    ~dst_port:9999
    (Some (Fig1.asn_b, 0));
  (* Diversion of web traffic to B still applies (B still exports p1). *)
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
    ~dst_port:80
    (Some (Fig1.asn_b, 0))

let test_incremental_new_vnh () =
  let runtime = Fig1.make_runtime () in
  let before =
    Option.get (Runtime.announcement runtime ~receiver:Fig1.asn_a Fig1.p1)
  in
  ignore (Runtime.withdraw runtime ~peer:Fig1.asn_c Fig1.p1);
  let after =
    Option.get (Runtime.announcement runtime ~receiver:Fig1.asn_a Fig1.p1)
  in
  check_bool "fresh vnh assigned" false
    (Ipv4.equal before.Route.next_hop after.Route.next_hop);
  (* The fresh VNH resolves in ARP. *)
  check_bool "fresh vnh resolves" true
    (Option.is_some
       (Sdx_arp.Responder.query (Runtime.arp runtime) after.Route.next_hop))

let test_incremental_noop_update () =
  let runtime = Fig1.make_runtime () in
  (* Re-announcing an identical route changes no best path. *)
  let route =
    Route.make ~prefix:Fig1.p5 ~next_hop:(ip "172.0.0.5")
      ~as_path:[ Fig1.asn_d; Asn.of_int 65001 ]
      ~learned_from:Fig1.asn_d ()
  in
  let stats = Runtime.handle_update runtime (Update.announce route) in
  check_bool "no best change" false stats.best_changed;
  check_int "no extra rules" 0 (Runtime.extra_rule_count runtime)

let test_reoptimize_clears_extras () =
  let runtime = Fig1.make_runtime () in
  ignore (Runtime.withdraw runtime ~peer:Fig1.asn_c Fig1.p1);
  check_bool "extras present" true (Runtime.extra_rule_count runtime > 0);
  let stats = Runtime.reoptimize runtime in
  check_int "extras cleared" 0 (Runtime.extra_rule_count runtime);
  check_bool "recompiled" true (stats.rule_count > 0);
  (* Behavior after re-optimization matches the fast-path behavior. *)
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
    ~dst_port:9999
    (Some (Fig1.asn_b, 0))

(* B's inbound policy rewrites the service address 20.0.1.9 to an
   instance in p4 and delivers it by B's best route for p4 (a [Default]
   clause).  When D starts announcing p4 with a shorter path, that best
   route moves to D — though p1, the class A's web traffic is tagged
   with, is untouched.  The burst must not leave A's diversion through
   B's pipeline delivering to C. *)
let test_default_rewrite_follows_best_route () =
  let config =
    Config.with_policies (Fig1.make_config ()) (fun (p : Participant.t) ->
        if Asn.equal p.asn Fig1.asn_b then
          ( Apps.wide_area_load_balancer ~service:(ip "20.0.1.9")
              ~default_instance:(ip "20.0.4.9") ~pinned:[],
            p.outbound )
        else (p.inbound, p.outbound))
  in
  let runtime = Runtime.create config in
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
    ~dst_port:80
    (Some (Fig1.asn_c, 0));
  ignore
    (Runtime.announce runtime ~peer:Fig1.asn_d ~port:0 ~as_path:[ Fig1.asn_d ]
       Fig1.p4);
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
    ~dst_port:80
    (Some (Fig1.asn_d, 0));
  let report = Sdx_check.Check.runtime runtime in
  check_bool
    (Format.asprintf "verifies clean: %a" Sdx_check.Check.pp_report
       { report with Sdx_check.Check.findings = Sdx_check.Check.errors report })
    false
    (Sdx_check.Check.has_errors report)

let test_set_policies_in_place () =
  let runtime = Fig1.make_runtime () in
  (* AS A starts with the Figure 1 policy: web to p1 diverts to B. *)
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
    ~dst_port:80
    (Some (Fig1.asn_b, 0));
  (* A replaces its application: now HTTPS diverts to B and web follows
     BGP.  BGP state must be untouched. *)
  let stats =
    Runtime.set_policies runtime Fig1.asn_a ~inbound:[]
      ~outbound:[ Ppolicy.fwd (Sdx_policy.Pred.dst_port 443) (Ppolicy.Peer Fig1.asn_b) ]
  in
  check_bool "recompiled" true (stats.rule_count > 0);
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
    ~dst_port:80
    (Some (Fig1.asn_c, 0));
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
    ~dst_port:443
    (Some (Fig1.asn_b, 0));
  (* Routes survived the policy change. *)
  check_int "prefixes intact" 5
    (Route_server.prefix_count (Config.server (Runtime.config runtime)));
  (* Invalid replacement policies are rejected. *)
  check_bool "validation applies" true
    (try
       ignore
         (Runtime.set_policies runtime Fig1.asn_a ~inbound:[]
            ~outbound:
              [ Ppolicy.fwd Sdx_policy.Pred.True (Ppolicy.Peer (Asn.of_int 9999)) ]);
       false
     with Invalid_argument _ -> true)

let test_burst_accumulates () =
  let runtime = Fig1.make_runtime () in
  let updates =
    [
      Update.withdraw ~peer:Fig1.asn_c Fig1.p1;
      Update.withdraw ~peer:Fig1.asn_c Fig1.p2;
    ]
  in
  let stats = Runtime.handle_burst runtime updates in
  check_int "two handled" 2 (List.length stats);
  check_bool "both changed best" true
    (List.for_all (fun (s : Runtime.update_stats) -> s.best_changed) stats);
  check_bool "extras from both" true
    (Runtime.extra_rule_count runtime
    >= List.fold_left (fun n (s : Runtime.update_stats) -> n + s.extra_rules) 0 stats)

(* ------------------------------------------------------------------ *)
(* Apps: the §2 application builders                                   *)

let test_apps_peering_equivalent () =
  (* The builder produces A's Figure 1 policy clause-for-clause. *)
  let built =
    Apps.application_specific_peering ~ports:[ 80 ] ~via:Fig1.asn_b ()
    @ Apps.application_specific_peering ~ports:[ 443 ] ~via:Fig1.asn_c ()
  in
  let a = { Fig1.participant_a with outbound = built } in
  let config =
    Config.make [ a; Fig1.participant_b; Fig1.participant_c; Fig1.participant_d ]
  in
  Fig1.announce_routes config;
  let runtime = Runtime.create config in
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
    ~dst_port:80
    (Some (Fig1.asn_b, 0));
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.4.9"
    ~dst_port:443
    (Some (Fig1.asn_c, 0))

let test_apps_inbound_split () =
  let built =
    Apps.inbound_split_by_source
      [ (pfx "0.0.0.0/1", 0); (pfx "128.0.0.0/1", 1) ]
  in
  let b = { Fig1.participant_b with inbound = built } in
  let config =
    Config.make [ Fig1.participant_a; b; Fig1.participant_c; Fig1.participant_d ]
  in
  Fig1.announce_routes config;
  let runtime = Runtime.create config in
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"192.168.0.1" ~dst:"20.0.1.9"
    ~dst_port:80
    (Some (Fig1.asn_b, 1))

let test_apps_load_balancer_shape () =
  let pol =
    Apps.wide_area_load_balancer ~service:(ip "74.125.1.1")
      ~default_instance:(ip "184.72.0.97")
      ~pinned:[ (Prefix.make (ip "204.57.0.67") 32, ip "184.72.128.9") ]
  in
  check_int "pinned + default" 2 (List.length pol);
  check_bool "all default-target rewrites" true
    (List.for_all (fun (c : Ppolicy.clause) -> c.target = Ppolicy.Default) pol);
  (* The catch-all clause comes last so pinned clients win. *)
  check_bool "catch-all last" true
    ((List.nth pol 1).Ppolicy.mods.Sdx_policy.Mods.dst_ip = Some (ip "184.72.0.97"))

let test_apps_firewall () =
  let a =
    {
      Fig1.participant_a with
      outbound = Apps.firewall [ Sdx_policy.Pred.dst_port 23 ];
    }
  in
  let config =
    Config.make [ a; Fig1.participant_b; Fig1.participant_c; Fig1.participant_d ]
  in
  Fig1.announce_routes config;
  let runtime = Runtime.create config in
  (* Telnet is blackholed; everything else follows BGP. *)
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
    ~dst_port:23 None;
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
    ~dst_port:80
    (Some (Fig1.asn_c, 0))

let test_apps_steer_by_as_path () =
  let config = Fig1.make_config () in
  (* In the Fig1 world, B's announcements end at AS 65002 for p1/p2. *)
  let pol =
    Apps.steer_by_as_path (Config.server config) ~receiver:Fig1.asn_a
      ~regex:".*65002$" ~mbox:Fig1.asn_d
  in
  check_int "one steering clause" 1 (List.length pol);
  check_bool "redirect target" true
    ((List.hd pol).Ppolicy.target = Ppolicy.Redirect Fig1.asn_d)

(* ------------------------------------------------------------------ *)
(* Policy parser                                                       *)

let parse_ok s =
  match Policy_parser.parse s with
  | Ok p -> p
  | Error e -> Alcotest.failf "unexpected parse error: %a" Policy_parser.pp_error e

let parse_err s =
  match Policy_parser.parse s with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" s
  | Error e -> e

let test_parser_paper_examples () =
  (* AS A's application-specific peering (§3.1). *)
  let p = parse_ok "match(dstport=80) >> fwd(AS200) + match(dstport=443) >> fwd(AS300)" in
  check_int "two clauses" 2 (List.length p);
  check_bool "first to AS200" true
    ((List.hd p).Ppolicy.target = Ppolicy.Peer (Asn.of_int 200));
  (* AS B's inbound traffic engineering. *)
  let p =
    parse_ok
      "match(srcip=0.0.0.0/1) >> fwd(port 0) + match(srcip=128.0.0.0/1) >> \
       fwd(port 1)"
  in
  check_bool "port targets" true
    (List.map (fun (c : Ppolicy.clause) -> c.target) p
    = [ Ppolicy.Phys 0; Ppolicy.Phys 1 ]);
  (* Wide-area load balancing rewrite. *)
  let p =
    parse_ok
      "match(dstip=74.125.1.1 && srcip=96.25.160.0/24) >> \
       mod(dstip=74.125.224.161) >> default"
  in
  check_bool "default target" true ((List.hd p).Ppolicy.target = Ppolicy.Default);
  check_bool "rewrite captured" true
    ((List.hd p).Ppolicy.mods.Sdx_policy.Mods.dst_ip
    = Some (ip "74.125.224.161"));
  (* Middlebox steering. *)
  let p = parse_ok "match(srcip=208.65.152.0/22) >> steer(AS64512)" in
  check_bool "steer target" true
    ((List.hd p).Ppolicy.target = Ppolicy.Redirect (Asn.of_int 64512))

let test_parser_pred_semantics () =
  (* Parsed predicates evaluate like hand-built ones. *)
  let pred =
    match Policy_parser.parse_pred "dstport=80 || (dstport=443 && !srcip=10.0.0.0/8)" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse_pred: %a" Policy_parser.pp_error e
  in
  let pkt ~src ~dport =
    Sdx_net.Packet.make ~src_ip:(ip src) ~dst_port:dport ()
  in
  check_bool "web matches" true (Sdx_policy.Pred.eval pred (pkt ~src:"10.1.1.1" ~dport:80));
  check_bool "https from outside" true
    (Sdx_policy.Pred.eval pred (pkt ~src:"99.1.1.1" ~dport:443));
  check_bool "https from inside excluded" false
    (Sdx_policy.Pred.eval pred (pkt ~src:"10.1.1.1" ~dport:443));
  check_bool "other dropped" false (Sdx_policy.Pred.eval pred (pkt ~src:"9.9.9.9" ~dport:22))

let test_parser_whole_pipeline () =
  (* A parsed policy compiles and forwards identically to the hand-built
     Figure 1 policy. *)
  let outbound =
    parse_ok "match(dstport=80) >> fwd(AS200) + match(dstport=443) >> fwd(AS300)"
  in
  let a = { Fig1.participant_a with outbound } in
  let config =
    Config.make [ a; Fig1.participant_b; Fig1.participant_c; Fig1.participant_d ]
  in
  Fig1.announce_routes config;
  let runtime = Runtime.create config in
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
    ~dst_port:80
    (Some (Fig1.asn_b, 0))

let test_parser_errors () =
  let cases =
    [
      "match(dstport=80)";  (* missing action *)
      "match(dstport=80) >> fwd(AS200) extra";
      "match(nosuchfield=1) >> drop";
      "match(dstport=80 >> drop";
      "mod(dstip=1.2.3.4) >> mod(srcip=4.3.2.1) >> drop";  (* two mods *)
      "match(srcip=999.0.0.1) >> drop";
      "fwd()";
      "match(dstport=80) >> fwd(port x)";
    ]
  in
  List.iter
    (fun s ->
      let e = parse_err s in
      check_bool "position within input" true (e.position <= String.length s))
    cases

let test_parser_error_positions () =
  (* Errors carry 1-based line/column pointing at the offending token. *)
  let e = parse_err "match(dstport=80) >> fwd(AS200) extra" in
  check_int "line" 1 e.Policy_parser.line;
  check_int "column" 33 e.Policy_parser.column;
  let e = parse_err "match(dstport=80) >>\n  fwd(nonsense=)" in
  check_int "second line" 2 e.Policy_parser.line;
  check_bool "column into line 2" true (e.Policy_parser.column >= 3);
  check_bool "message names the problem" true
    (contains_sub (Format.asprintf "%a" Policy_parser.pp_error e) "line 2")

let test_parser_lint_references () =
  let known_asns = List.map Asn.of_int [ 100; 200; 300 ] in
  let checked = Policy_parser.parse_checked ~known_asns ~port_count:2 in
  (* References inside the exchange parse fine. *)
  (match checked "match(dstport=80) >> fwd(AS200) + match(srcip=0.0.0.0/1) >> fwd(port 1)" with
  | Ok p -> check_int "both clauses" 2 (List.length p)
  | Error e -> Alcotest.failf "lint rejected a valid policy: %a" Policy_parser.pp_error e);
  (* An AS outside the exchange is rejected, at the reference. *)
  (match checked "match(dstport=80) >> fwd(AS999)" with
  | Ok _ -> Alcotest.fail "unknown AS accepted"
  | Error e ->
      check_bool "message names the AS" true
        (contains_sub e.Policy_parser.message "AS999");
      check_int "points at the AS token" 26 e.Policy_parser.column);
  (match checked "match(srcip=10.0.0.0/8) >> steer(AS400)" with
  | Ok _ -> Alcotest.fail "unknown steer target accepted"
  | Error e ->
      check_bool "steer lint message" true
        (contains_sub e.Policy_parser.message "AS400"));
  (* A port index beyond the participant's own ports is rejected. *)
  (match checked "match(srcip=0.0.0.0/1) >> fwd(port 2)" with
  | Ok _ -> Alcotest.fail "out-of-range port accepted"
  | Error e ->
      check_bool "port lint message" true
        (contains_sub e.Policy_parser.message "out of range"));
  (* Without lint context the same text still parses. *)
  match Policy_parser.parse "match(dstport=80) >> fwd(AS999)" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unchecked parse failed: %a" Policy_parser.pp_error e

(* Print/parse roundtrip over randomly generated policies: clause
   structure is preserved exactly, predicates semantically. *)
let gen_parseable_policy =
  let open QCheck2.Gen in
  let gen_pred =
    let atom =
      oneof
        [
          map Sdx_policy.Pred.dst_port (int_range 1 9999);
          map Sdx_policy.Pred.src_port (int_range 1 9999);
          map
            (fun x -> Sdx_policy.Pred.src_ip (Prefix.make (Ipv4.of_int (x lsl 24)) 8))
            (int_range 1 100);
          map
            (fun x ->
              Sdx_policy.Pred.dst_ip (Prefix.make (Ipv4.of_int (x lsl 20)) 12))
            (int_range 1 100);
          map Sdx_policy.Pred.proto (oneofl [ 6; 17 ]);
          return Sdx_policy.Pred.True;
        ]
    in
    sized_size (int_range 0 3) @@ QCheck2.Gen.fix (fun self n ->
        if n = 0 then atom
        else
          oneof
            [
              atom;
              map2 (fun a b -> Sdx_policy.Pred.And (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Sdx_policy.Pred.Or (a, b)) (self (n / 2)) (self (n / 2));
              map (fun a -> Sdx_policy.Pred.Not a) (self (n - 1));
            ])
  in
  let gen_mods =
    let opt g = QCheck2.Gen.frequency [ (2, return None); (1, map Option.some g) ] in
    let* dst_ip = opt (map (fun x -> Ipv4.of_int (x lsl 8)) (int_range 1 1000)) in
    let* dst_port = opt (int_range 1 9999) in
    return (Sdx_policy.Mods.make ?dst_ip ?dst_port ())
  in
  let gen_target =
    oneof
      [
        map (fun n -> Ppolicy.Peer (Asn.of_int n)) (int_range 1 70000);
        map (fun k -> Ppolicy.Phys k) (int_range 0 3);
        map (fun n -> Ppolicy.Redirect (Asn.of_int n)) (int_range 1 70000);
        return Ppolicy.Default;
        return Ppolicy.Drop;
      ]
  in
  let gen_clause =
    let* pred = gen_pred in
    let* mods = gen_mods in
    let* target = gen_target in
    return (Ppolicy.clause ~mods pred target)
  in
  QCheck2.Gen.list_size (int_range 1 4) gen_clause

let sample_packets =
  List.concat_map
    (fun dst_port ->
      List.concat_map
        (fun proto ->
          List.map
            (fun x ->
              Sdx_net.Packet.make
                ~src_ip:(Ipv4.of_int (x lsl 24))
                ~dst_ip:(Ipv4.of_int (x lsl 20))
                ~proto ~src_port:dst_port ~dst_port ())
            [ 1; 5; 42; 99 ])
        [ 6; 17 ])
    [ 80; 443; 5000 ]

let prop_parser_print_roundtrip =
  QCheck2.Test.make ~name:"print/parse roundtrip preserves policies" ~count:500
    gen_parseable_policy
    (fun policy ->
      match Policy_parser.parse (Policy_parser.print policy) with
      | Error _ -> false
      | Ok policy' ->
          List.length policy = List.length policy'
          && List.for_all2
               (fun (a : Ppolicy.clause) (b : Ppolicy.clause) ->
                 a.target = b.target
                 && Sdx_policy.Mods.equal a.mods b.mods
                 && List.for_all
                      (fun pkt ->
                        Sdx_policy.Pred.eval a.pred pkt
                        = Sdx_policy.Pred.eval b.pred pkt)
                      sample_packets)
               policy policy')

(* Fuzz: arbitrary input must yield Ok or a located Error, never an
   exception ([printable] below is QCheck2's built-in char generator). *)
let prop_parser_never_crashes =
  QCheck2.Test.make ~name:"policy parser never crashes on noise" ~count:1000
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 60))
    (fun s ->
      match Policy_parser.parse s with
      | Ok _ -> true
      | Error e -> e.position <= String.length s)

let prop_parser_survives_mutation =
  (* Valid policies with one random printable byte flipped still parse
     or fail cleanly. *)
  QCheck2.Test.make ~name:"policy parser survives mutations" ~count:500
    QCheck2.Gen.(pair (int_range 0 1000) (pair (int_range 0 200) printable))
    (fun (_, (pos, ch)) ->
      let base = "match(dstport=80 && srcip=10.0.0.0/8) >> fwd(AS200) + drop" in
      let b = Bytes.of_string base in
      Bytes.set b (pos mod Bytes.length b) ch;
      match Policy_parser.parse (Bytes.to_string b) with
      | Ok _ | Error _ -> true)

let prop_scenario_never_crashes =
  QCheck2.Test.make ~name:"scenario parser never crashes on noise" ~count:500
    QCheck2.Gen.(
      string_size
        ~gen:(frequency [ (8, printable); (1, return '\n'); (1, return ' ') ])
        (int_range 0 120))
    (fun s ->
      match Scenario.parse s with
      | Ok _ | Error _ -> true)

let test_parser_misc_forms () =
  check_bool "bare drop" true
    ((List.hd (parse_ok "drop")).Ppolicy.target = Ppolicy.Drop);
  check_bool "numeric asn" true
    ((List.hd (parse_ok "match(proto=17) >> fwd(200)")).Ppolicy.target
    = Ppolicy.Peer (Asn.of_int 200));
  check_bool "comma as conjunction" true
    (match Policy_parser.parse_pred "dstport=80, proto=6" with
    | Ok p ->
        Sdx_policy.Pred.eval p (Sdx_net.Packet.make ~dst_port:80 ~proto:6 ())
        && not (Sdx_policy.Pred.eval p (Sdx_net.Packet.make ~dst_port:80 ~proto:17 ()))
    | Error _ -> false);
  check_bool "host address is /32" true
    (match Policy_parser.parse_pred "dstip=1.2.3.4" with
    | Ok p ->
        Sdx_policy.Pred.eval p (Sdx_net.Packet.make ~dst_ip:(ip "1.2.3.4") ())
        && not (Sdx_policy.Pred.eval p (Sdx_net.Packet.make ~dst_ip:(ip "1.2.3.5") ()))
    | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Gateway: the wire-level BGP front door                              *)

(* The Figure 1 exchange with an EMPTY routing table: every route will
   arrive over a real BGP session as bytes. *)
let gateway_world () =
  let config =
    Config.make
      [ Fig1.participant_a; Fig1.participant_b; Fig1.participant_c; Fig1.participant_d ]
  in
  let runtime = Runtime.create config in
  let gw = Gateway.create runtime in
  Gateway.connect_all gw;
  (* Client-side routers, one per participant. *)
  let clients =
    List.map
      (fun asn ->
        let client =
          Peer.create
            ~local:{ Wire.asn; hold_time = 90; bgp_id = ip "192.0.2.1" }
            ~peer_asn:(Asn.of_int 65535)
        in
        Peer.connect client;
        (asn, client))
      [ Fig1.asn_a; Fig1.asn_b; Fig1.asn_c; Fig1.asn_d ]
  in
  (* Shuttle bytes both ways, recording every update each client's
     router learns from the route server. *)
  let received : (Asn.t, Update.t list ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter (fun (asn, _) -> Hashtbl.replace received asn (ref [])) clients;
  let shuttle () =
    for _ = 1 to 6 do
      List.iter
        (fun (asn, client) ->
          List.iter
            (fun data ->
              match Gateway.deliver gw ~from:asn data with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e)
            (Peer.pending_output client);
          List.iter
            (fun data ->
              match Peer.feed client data with
              | Ok us ->
                  let r = Hashtbl.find received asn in
                  r := !r @ us
              | Error e -> Alcotest.fail e)
            (Gateway.outbox gw asn))
        clients
    done
  in
  shuttle ();
  let learned asn = !(Hashtbl.find received asn) in
  (gw, clients, shuttle, learned)

let client_announce client route =
  Peer.send_update client (Update.announce route)

let test_gateway_establishes_all () =
  let gw, _, _, _ = gateway_world () in
  check_int "all sessions up" 4 (List.length (Gateway.established gw))

let test_gateway_bytes_to_readvertisement () =
  let gw, clients, shuttle, learned = gateway_world () in
  let client_b = List.assoc Fig1.asn_b clients in
  let client_a = List.assoc Fig1.asn_a clients in
  (* B announces p1 over the wire... *)
  client_announce client_b
    (Route.make ~prefix:Fig1.p1 ~next_hop:(ip "172.0.0.2")
       ~as_path:[ Fig1.asn_b; Asn.of_int 65001 ]
       ~learned_from:Fig1.asn_b ());
  shuttle ();
  (* ...the route server now knows it... *)
  let server = Config.server (Runtime.config (Gateway.runtime gw)) in
  check_bool "server learned p1" true
    (Option.is_some (Route_server.best server ~receiver:Fig1.asn_a Fig1.p1));
  ignore client_a;
  (* ...and A's router received a re-advertisement whose next hop is a
     virtual next hop resolved by the controller's ARP responder. *)
  match
    List.filter_map
      (function
        | Update.Announce (r : Route.t) when Prefix.equal r.prefix Fig1.p1 -> Some r
        | _ -> None)
      (learned Fig1.asn_a)
  with
  | r :: _ ->
      let vnh_pool = pfx "172.16.0.0/12" in
      check_bool "vnh next hop" true (Prefix.mem r.next_hop vnh_pool);
      check_bool "vnh resolves to a vmac" true
        (Option.is_some
           (Sdx_arp.Responder.query (Runtime.arp (Gateway.runtime gw)) r.next_hop))
  | [] -> Alcotest.fail "A never received the re-advertisement"

let test_gateway_withdrawal_propagates () =
  let gw, clients, shuttle, learned = gateway_world () in
  let client_b = List.assoc Fig1.asn_b clients in
  let client_a = List.assoc Fig1.asn_a clients in
  client_announce client_b
    (Route.make ~prefix:Fig1.p1 ~next_hop:(ip "172.0.0.2")
       ~as_path:[ Fig1.asn_b; Asn.of_int 65001 ]
       ~learned_from:Fig1.asn_b ());
  shuttle ();
  ignore client_a;
  Peer.send_update client_b (Update.withdraw ~peer:Fig1.asn_b Fig1.p1);
  shuttle ();
  check_bool "withdrawal relayed" true
    (List.exists
       (function
         | Update.Withdraw { prefix; _ } -> Prefix.equal prefix Fig1.p1
         | Update.Announce _ -> false)
       (learned Fig1.asn_a));
  let server = Config.server (Runtime.config (Gateway.runtime gw)) in
  check_bool "route gone" true
    (Route_server.best server ~receiver:Fig1.asn_a Fig1.p1 = None)

let test_gateway_session_loss_flushes () =
  let gw, clients, shuttle, _ = gateway_world () in
  let client_b = List.assoc Fig1.asn_b clients in
  client_announce client_b
    (Route.make ~prefix:Fig1.p1 ~next_hop:(ip "172.0.0.2")
       ~as_path:[ Fig1.asn_b; Asn.of_int 65001 ]
       ~learned_from:Fig1.asn_b ());
  shuttle ();
  let server = Config.server (Runtime.config (Gateway.runtime gw)) in
  check_int "b's table present" 1 (List.length (Route_server.prefixes_of server Fig1.asn_b));
  (* B's session dies: garbage on the wire tears it down, and the
     gateway withdraws everything B had announced. *)
  check_bool "garbage errors" true
    (Result.is_error (Gateway.deliver gw ~from:Fig1.asn_b (Bytes.make 19 '\000')));
  check_int "b's routes flushed" 0
    (List.length (Route_server.prefixes_of server Fig1.asn_b))

let test_gateway_table_transfer () =
  let gw, clients, shuttle, _ = gateway_world () in
  let client_b = List.assoc Fig1.asn_b clients in
  let client_a = List.assoc Fig1.asn_a clients in
  List.iter
    (fun prefix ->
      client_announce client_b
        (Route.make ~prefix ~next_hop:(ip "172.0.0.2")
           ~as_path:[ Fig1.asn_b; Asn.of_int 65001 ]
           ~learned_from:Fig1.asn_b ()))
    [ Fig1.p1; Fig1.p2; Fig1.p3 ];
  shuttle ();
  ignore (Gateway.outbox gw Fig1.asn_a);
  check_int "full table queued" 3 (Gateway.advertise_table gw Fig1.asn_a);
  let received = ref 0 in
  List.iter
    (fun data ->
      match Peer.feed client_a data with
      | Ok us -> received := !received + List.length us
      | Error e -> Alcotest.fail e)
    (Gateway.outbox gw Fig1.asn_a);
  check_int "full table received" 3 !received

(* Re-advertisement bytes: every established receiver except the sender
   gets exactly the encoding of its own announcement (or withdrawal),
   and receivers sent the same message still hold their own bytes. *)
let test_gateway_readvertisement_bytes () =
  let gw, clients, _, _ = gateway_world () in
  let all = [ Fig1.asn_a; Fig1.asn_b; Fig1.asn_c; Fig1.asn_d ] in
  (* D's session drops, so it is not established when the UPDATE
     arrives. *)
  check_bool "garbage tears D down" true
    (Result.is_error (Gateway.deliver gw ~from:Fig1.asn_d (Bytes.make 19 '\000')));
  check_bool "D not established" false
    (List.mem Fig1.asn_d (Gateway.established gw));
  List.iter (fun asn -> ignore (Gateway.outbox gw asn)) all;
  let client_b = List.assoc Fig1.asn_b clients in
  let runtime = Gateway.runtime gw in
  let deliver_from_b update =
    Peer.send_update client_b update;
    List.iter
      (fun data ->
        match Gateway.deliver gw ~from:Fig1.asn_b data with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
      (Peer.pending_output client_b);
    let queued = List.map (fun asn -> (asn, Gateway.outbox gw asn)) all in
    List.iter
      (fun (asn, out) ->
        let expected =
          if Asn.equal asn Fig1.asn_b || Asn.equal asn Fig1.asn_d then []
          else
            let update =
              match Runtime.announcement runtime ~receiver:asn Fig1.p1 with
              | Some route -> Update.announce route
              | None -> Update.withdraw ~peer:asn Fig1.p1
            in
            [ Wire.encode (Wire.of_update update) ]
        in
        check_bool
          (Asn.to_string asn ^ " outbox is its own message")
          true
          (List.equal Bytes.equal out expected))
      queued;
    (* A and C share a best route, so they are sent one message... *)
    check_bool "A and C sent the same message" true
      (List.equal Bytes.equal
         (List.assoc Fig1.asn_a queued)
         (List.assoc Fig1.asn_c queued));
    (* ...in bytes of their own. *)
    let bytes = List.concat_map snd queued in
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b -> if i < j then check_bool "no shared bytes" false (a == b))
          bytes)
      bytes
  in
  deliver_from_b
    (Update.announce
       (Route.make ~prefix:Fig1.p1 ~next_hop:(ip "172.0.0.2")
          ~as_path:[ Fig1.asn_b; Asn.of_int 65001 ]
          ~learned_from:Fig1.asn_b ()));
  deliver_from_b (Update.withdraw ~peer:Fig1.asn_b Fig1.p1)

(* A session teardown withdraws the lost session's routes as one burst:
   at most one fast-path block, and each other established session is
   sent one message per moved prefix, its final announcement. *)
let test_gateway_teardown_one_burst () =
  let gw, clients, shuttle, _ = gateway_world () in
  let all = [ Fig1.asn_a; Fig1.asn_b; Fig1.asn_c; Fig1.asn_d ] in
  let prefixes = [ Fig1.p1; Fig1.p2; Fig1.p3; Fig1.p4 ] in
  List.iter
    (fun prefix ->
      client_announce (List.assoc Fig1.asn_b clients)
        (Route.make ~prefix ~next_hop:(ip "172.0.0.2")
           ~as_path:[ Fig1.asn_b; Asn.of_int 65001 ]
           ~learned_from:Fig1.asn_b ()))
    prefixes;
  (* C reaches p1 too, over a longer path: the teardown moves p1 to C
     for A and D, and withdraws everything else. *)
  client_announce (List.assoc Fig1.asn_c clients)
    (Route.make ~prefix:Fig1.p1 ~next_hop:(ip "172.0.0.4")
       ~as_path:[ Fig1.asn_c; Asn.of_int 65001; Asn.of_int 65002 ]
       ~learned_from:Fig1.asn_c ());
  shuttle ();
  List.iter (fun asn -> ignore (Gateway.outbox gw asn)) all;
  let runtime = Gateway.runtime gw in
  let blocks = Runtime.fast_path_block_count runtime in
  check_bool "garbage tears B down" true
    (Result.is_error (Gateway.deliver gw ~from:Fig1.asn_b (Bytes.make 19 '\000')));
  check_bool "one fast-path block at most" true
    (Runtime.fast_path_block_count runtime <= blocks + 1);
  let final asn prefix =
    Wire.encode
      (Wire.of_update
         (match Runtime.announcement runtime ~receiver:asn prefix with
         | Some route -> Update.announce route
         | None -> Update.withdraw ~peer:asn prefix))
  in
  List.iter
    (fun asn ->
      let sent = List.sort Bytes.compare (Gateway.outbox gw asn) in
      let expected = List.sort Bytes.compare (List.map (final asn) prefixes) in
      check_bool
        (Asn.to_string asn ^ " is sent each prefix's final announcement once")
        true
        (List.equal Bytes.equal sent expected))
    [ Fig1.asn_a; Fig1.asn_c; Fig1.asn_d ];
  check_bool "A's p1 moved to C" true
    (match Runtime.announcement runtime ~receiver:Fig1.asn_a Fig1.p1 with
    | Some r -> Asn.equal r.learned_from Fig1.asn_c
    | None -> false)

(* Random announce/withdraw sequences through [Gateway.deliver] on the
   Figure 1 exchange.  AS paths may run through other participants, so
   some receivers are loop-prevented, and withdrawals may leave a prefix
   with no route.  After each update, every established session except
   the sender's is sent exactly the encoding of its own announcement
   when some best route moved, and nothing otherwise; no two drained
   buffers alias. *)
let gateway_ports =
  [
    (Fig1.asn_a, ip "172.0.0.1");
    (Fig1.asn_b, ip "172.0.0.2");
    (Fig1.asn_c, ip "172.0.0.4");
    (Fig1.asn_d, ip "172.0.0.5");
  ]

let gen_gateway_step =
  let open QCheck2.Gen in
  let* from, port = oneofl gateway_ports in
  let* prefix = oneofl [ Fig1.p1; Fig1.p2; Fig1.p3; Fig1.p5 ] in
  let* withdraw = int_range 0 2 in
  if withdraw = 0 then return (from, Update.withdraw ~peer:from prefix)
  else
    let* tail =
      list_size (int_range 0 2)
        (oneofl (List.map fst gateway_ports @ [ Asn.of_int 65001; Asn.of_int 65002 ]))
    in
    let* med = int_range 0 2 in
    return
      ( from,
        Update.announce
          (Route.make ~prefix ~next_hop:port ~as_path:(from :: tail) ~med
             ~learned_from:from ()) )

let prop_gateway_readvertisement =
  QCheck2.Test.make ~name:"re-advertisement = each receiver's announcement" ~count:60
    ~print:(fun steps ->
      String.concat "\n" (List.map (fun (_, u) -> Format.asprintf "%a" Update.pp u) steps))
    QCheck2.Gen.(list_size (int_range 1 25) gen_gateway_step)
    (fun steps ->
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let gw, clients, _, _ = gateway_world () in
      let all = List.map fst gateway_ports in
      List.iter (fun asn -> ignore (Gateway.outbox gw asn)) all;
      let runtime = Gateway.runtime gw in
      List.iter
        (fun (from, update) ->
          let client = List.assoc from clients in
          Peer.send_update client update;
          let stats =
            List.concat_map
              (fun data ->
                match Gateway.deliver gw ~from data with
                | Ok stats -> stats
                | Error e -> fail "deliver: %s" e)
              (Peer.pending_output client)
          in
          let moved = List.exists (fun (s : Runtime.update_stats) -> s.best_changed) stats in
          let drained = List.map (fun asn -> (asn, Gateway.outbox gw asn)) all in
          List.iter
            (fun (asn, out) ->
              let expected =
                if Asn.equal asn from || not moved then []
                else
                  [
                    Wire.encode
                      (Wire.of_update
                         (match
                            Runtime.announcement runtime ~receiver:asn
                              (Update.prefix update)
                          with
                         | Some route -> Update.announce route
                         | None -> Update.withdraw ~peer:asn (Update.prefix update)));
                  ]
              in
              if not (List.equal Bytes.equal out expected) then
                fail "%a: %a was sent %d message(s), not its own announcement" Update.pp
                  update Asn.pp asn (List.length out))
            drained;
          let buffers = List.concat_map snd drained in
          List.iteri
            (fun i a ->
              List.iteri
                (fun j b -> if i < j && a == b then fail "two outboxes share bytes")
                buffers)
            buffers)
        steps;
      true)

(* Hostile bytes through [Gateway.deliver]: a valid UPDATE's encoding
   with bytes flipped, cut short, or a header, withdrawn-routes or
   path-attribute length that lies.  No call raises.  After an [Error]
   the sender is down, the route server holds nothing it learned from
   it, and the sender's outbox holds one NOTIFICATION, which takes the
   router down too; once both ends reconnect the session comes back and
   a valid UPDATE from it is applied. *)
type hostile =
  | Flips of (int * int) list  (* (position mod length, xor mask) *)
  | Truncate of int  (* bytes kept, mod length *)
  | Header_len of int
  | Withdrawn_len of int
  | Attr_len of int

let pp_hostile = function
  | Flips fs ->
      "flips " ^ String.concat " " (List.map (fun (i, m) -> Printf.sprintf "%d^%d" i m) fs)
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Header_len v -> Printf.sprintf "header length %d" v
  | Withdrawn_len v -> Printf.sprintf "withdrawn length %d" v
  | Attr_len v -> Printf.sprintf "attribute length %d" v

let gen_hostile =
  let open QCheck2.Gen in
  let lie = oneof [ int_range 0 18; int_range 19 200; int_range 0 65535 ] in
  oneof
    [
      map (fun fs -> Flips fs) (list_size (int_range 1 4) (pair (int_range 0 999) (int_range 1 255)));
      map (fun n -> Truncate n) (int_range 0 999);
      map (fun v -> Header_len v) lie;
      map (fun v -> Withdrawn_len v) lie;
      map (fun v -> Attr_len v) lie;
    ]

let apply_hostile data = function
  | Flips fs ->
      let b = Bytes.copy data in
      let len = Bytes.length b in
      List.iter (fun (i, m) -> Bytes.set_uint8 b (i mod len) (Bytes.get_uint8 b (i mod len) lxor m)) fs;
      b
  | Truncate n -> Bytes.sub data 0 (n mod Bytes.length data)
  | Header_len v ->
      let b = Bytes.copy data in
      Bytes.set_uint16_be b 16 v;
      b
  | Withdrawn_len v ->
      let b = Bytes.copy data in
      Bytes.set_uint16_be b 19 v;
      b
  | Attr_len v ->
      let b = Bytes.copy data in
      Bytes.set_uint16_be b (21 + Bytes.get_uint16_be data 19) v;
      b

let prop_gateway_hostile_bytes =
  QCheck2.Test.make ~name:"hostile bytes: Ok or Error, reconnect recovers" ~count:300
    ~print:(fun ((_, u), h) -> Format.asprintf "%a, %s" Update.pp u (pp_hostile h))
    QCheck2.Gen.(pair gen_gateway_step gen_hostile)
    (fun ((from, update), hostile) ->
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let gw, clients, shuttle, _ = gateway_world () in
      let client = List.assoc from clients in
      let server = Config.server (Runtime.config (Gateway.runtime gw)) in
      let port = List.assoc from gateway_ports in
      let announce prefix =
        client_announce client
          (Route.make ~prefix ~next_hop:port ~as_path:[ from; Asn.of_int 65001 ]
             ~learned_from:from ());
        shuttle ()
      in
      announce Fig1.p1;
      let data = apply_hostile (Wire.encode (Wire.of_update update)) hostile in
      match Gateway.deliver gw ~from data with
      | exception e -> fail "deliver raised %s" (Printexc.to_string e)
      | Ok _ -> true
      | Error _ ->
          if List.mem from (Gateway.established gw) then fail "sender still established";
          if Route_server.prefixes_of server from <> [] then
            fail "the server still holds routes learned from the sender";
          (match Gateway.outbox gw from with
          | [ notification ] -> (
              match Wire.decode notification with
              | Ok (Wire.Notification _) -> (
                  match Peer.feed client notification with
                  | Ok _ -> ()
                  | Error e -> fail "the router rejected the NOTIFICATION: %s" e)
              | _ -> fail "the sender's outbox holds no NOTIFICATION")
          | out -> fail "the sender's outbox holds %d messages" (List.length out));
          if Peer.state client = Fsm.Established then
            fail "the router is still established";
          Peer.connect client;
          Peer.connect (Gateway.session gw from);
          shuttle ();
          if not (List.mem from (Gateway.established gw)) then
            fail "the session did not come back";
          announce Fig1.p3;
          if Route_server.route_from server ~via:from Fig1.p3 = None then
            fail "a valid UPDATE after the reconnect was not applied";
          true)

(* ------------------------------------------------------------------ *)
(* Scenario files                                                      *)

let figure1_scenario_text =
  {|# figure 1
participant AS100 port aa:aa:aa:aa:aa:01 172.0.0.1
participant AS200 port bb:bb:bb:bb:bb:01 172.0.0.2 port bb:bb:bb:bb:bb:02 172.0.0.3
participant AS300 port cc:cc:cc:cc:cc:01 172.0.0.4
participant AS400 port dd:dd:dd:dd:dd:01 172.0.0.5
outbound AS100 match(dstport=80) >> fwd(AS200) + match(dstport=443) >> fwd(AS300)
inbound AS200 match(srcip=0.0.0.0/1) >> fwd(port 0) + match(srcip=128.0.0.0/1) >> fwd(port 1)
announce AS200 0 20.0.1.0/24 path 200,65001,65002
announce AS200 0 20.0.2.0/24 path 200,65001,65002
announce AS200 0 20.0.3.0/24 path 200,65001
announce AS300 0 20.0.1.0/24 path 300,65001
announce AS300 0 20.0.2.0/24 path 300,65001
announce AS300 0 20.0.3.0/24 path 300,65001,65002
announce AS300 0 20.0.4.0/24 path 300,65001
announce AS400 0 20.0.5.0/24 path 400,65001
|}

let test_scenario_reproduces_figure1 () =
  let config =
    match Scenario.parse figure1_scenario_text with
    | Ok c -> c
    | Error e -> Alcotest.failf "scenario: %a" Scenario.pp_error e
  in
  check_int "participants" 4 (List.length (Config.participants config));
  check_int "ports" 5 (Config.port_count config);
  let runtime = Runtime.create config in
  check_int "figure 1 groups" 3 (Runtime.group_count runtime);
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
    ~dst_port:80
    (Some (Fig1.asn_b, 0));
  expect_delivery runtime ~sender:Fig1.asn_a ~src:"192.168.0.1" ~dst:"20.0.1.9"
    ~dst_port:80
    (Some (Fig1.asn_b, 1))

let test_scenario_originate () =
  let text =
    {|participant AS100 port aa:aa:aa:aa:aa:01 172.0.0.1
participant AS500
originate AS500 74.125.1.0/24
inbound AS500 match(dstip=74.125.1.1) >> drop
|}
  in
  match Scenario.parse text with
  | Error e -> Alcotest.failf "scenario: %a" Scenario.pp_error e
  | Ok config ->
      let tenant = Config.participant config (Asn.of_int 500) in
      check_bool "remote" true (Participant.is_remote tenant);
      check_bool "originated" true (tenant.originated = [ pfx "74.125.1.0/24" ])

let test_scenario_errors_located () =
  let cases =
    [
      ("participant AS100 port zz 172.0.0.1", 1);
      ("participant AS100\nannounce AS999 0 1.0.0.0/8", 2);
      ("participant AS100\noutbound AS100 match(dstport=80)", 2);
      ("participant AS100\nfrobnicate AS100", 2);
      ("participant AS100\nparticipant AS100", 2);
      ("outbound AS100 drop", 1);
      ("participant AS100\nparticipant AS200 port 0e:aa:aa:aa:aa:01 172.0.0.2", 2);
    ]
  in
  List.iter
    (fun (text, want_line) ->
      match Scenario.parse text with
      | Ok _ -> Alcotest.failf "expected error for %S" text
      | Error e -> check_int "error line" want_line e.line)
    cases

let test_scenario_policy_lint () =
  (* Policies may reference participants declared later in the file... *)
  (match
     Scenario.parse
       "participant AS100 port aa:aa:aa:aa:aa:01 172.0.0.1\n\
        outbound AS100 match(dstport=80) >> fwd(AS200)\n\
        participant AS200 port bb:bb:bb:bb:bb:01 172.0.0.2"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "forward reference rejected: %a" Scenario.pp_error e);
  (* ...but a reference to no participant at all is a load-time error on
     the policy's line. *)
  (match
     Scenario.parse
       "participant AS100 port aa:aa:aa:aa:aa:01 172.0.0.1\n\
        outbound AS100 match(dstport=80) >> fwd(AS999)"
   with
  | Ok _ -> Alcotest.fail "unknown peer accepted"
  | Error e ->
      check_int "error on the policy line" 2 e.line;
      check_bool "names the AS" true (contains_sub e.message "AS999"));
  (* fwd(port k) beyond the writer's own ports is also rejected. *)
  match
    Scenario.parse
      "participant AS100 port aa:aa:aa:aa:aa:01 172.0.0.1\n\
       inbound AS100 match(srcip=0.0.0.0/1) >> fwd(port 3)"
  with
  | Ok _ -> Alcotest.fail "out-of-range port accepted"
  | Error e ->
      check_int "error on the policy line" 2 e.line;
      check_bool "out-of-range message" true (contains_sub e.message "out of range")

let test_scenario_serialization_roundtrip () =
  let config = Fig1.make_config () in
  let text = Scenario.to_string config in
  match Scenario.parse text with
  | Error e -> Alcotest.failf "reparse: %a" Scenario.pp_error e
  | Ok config' ->
      check_int "participants" 4 (List.length (Config.participants config'));
      check_int "prefixes" 5 (Route_server.prefix_count (Config.server config'));
      (* The reloaded exchange compiles and forwards identically. *)
      let runtime' = Runtime.create config' in
      check_int "groups" 3 (Runtime.group_count runtime');
      expect_delivery runtime' ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.1.9"
        ~dst_port:80
        (Some (Fig1.asn_b, 0));
      expect_delivery runtime' ~sender:Fig1.asn_a ~src:"192.168.0.1"
        ~dst:"20.0.1.9" ~dst_port:80
        (Some (Fig1.asn_b, 1));
      expect_delivery runtime' ~sender:Fig1.asn_a ~src:"10.0.0.1" ~dst:"20.0.4.9"
        ~dst_port:80
        (Some (Fig1.asn_c, 0))

let test_scenario_serializes_origination () =
  let tenant =
    Participant.make ~asn:(Asn.of_int 14618) ~ports:[]
      ~originated:[ pfx "74.125.1.0/24" ] ()
  in
  let config =
    Config.make
      [ Fig1.participant_a; Fig1.participant_b; Fig1.participant_c;
        Fig1.participant_d; tenant ]
  in
  Fig1.announce_routes config;
  (* Runtime.create announces the originated prefix with its placeholder
     next hop, which must serialize as an originate line, not announce. *)
  ignore (Runtime.create config);
  let text = Scenario.to_string config in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "originate line present" true (contains "originate AS14618" text);
  check_bool "placeholder not announced" false (contains "announce AS14618" text)

let test_scenario_load_file () =
  (* The shipped examples/figure1.sdx stays loadable. *)
  let path = "../examples/figure1.sdx" in
  if Sys.file_exists path then
    match Scenario.load path with
    | Ok config -> check_int "participants" 4 (List.length (Config.participants config))
    | Error e -> Alcotest.failf "figure1.sdx: %a" Scenario.pp_error e

(* ------------------------------------------------------------------ *)
(* RPKI-gated origination                                              *)

let anycast_tenant () =
  Participant.make ~asn:(Asn.of_int 14618) ~ports:[]
    ~inbound:
      [
        Sdx_core.Ppolicy.rewrite
          (Sdx_policy.Pred.dst_ip (Prefix.make (ip "74.125.1.1") 32))
          (Sdx_policy.Mods.make ~dst_ip:(ip "20.0.1.9") ());
      ]
    ~originated:[ pfx "74.125.1.0/24" ] ()

let test_rpki_gates_origination () =
  let make_config () =
    let config =
      Config.make
        [
          Fig1.participant_a;
          Fig1.participant_b;
          Fig1.participant_c;
          Fig1.participant_d;
          anycast_tenant ();
        ]
    in
    Fig1.announce_routes config;
    config
  in
  (* Authorized: the anycast prefix is announced and grouped. *)
  let rpki_ok = Rpki.create () in
  Rpki.add_roa rpki_ok ~prefix:(pfx "74.125.1.0/24") (Asn.of_int 14618);
  let rt_ok = Runtime.create ~rpki:rpki_ok (make_config ()) in
  check_bool "no rejections" true (Runtime.rejected_originations rt_ok = []);
  check_bool "anycast announced" true
    (Option.is_some (Runtime.announcement rt_ok ~receiver:Fig1.asn_a (pfx "74.125.1.0/24")));
  (* Unauthorized: origination refused, prefix absent from the RIBs. *)
  let rpki_bad = Rpki.create () in
  Rpki.add_roa rpki_bad ~prefix:(pfx "74.125.1.0/24") (Asn.of_int 15169);
  let rt_bad = Runtime.create ~rpki:rpki_bad (make_config ()) in
  check_bool "rejection recorded" true
    (Runtime.rejected_originations rt_bad
    = [ (Asn.of_int 14618, pfx "74.125.1.0/24") ]);
  check_bool "anycast not announced" true
    (Runtime.announcement rt_bad ~receiver:Fig1.asn_a (pfx "74.125.1.0/24") = None);
  (* Without RPKI the SDX trusts the participant (the prototype's
     behavior). *)
  let rt_none = Runtime.create (make_config ()) in
  check_bool "unchecked origination allowed" true
    (Option.is_some
       (Runtime.announcement rt_none ~receiver:Fig1.asn_a (pfx "74.125.1.0/24")))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "sdx_core"
    [
      ( "fec",
        [
          Alcotest.test_case "paper example" `Quick test_fec_paper_example;
          Alcotest.test_case "untouched excluded" `Quick test_fec_untouched_excluded;
          Alcotest.test_case "empty" `Quick test_fec_empty;
          Alcotest.test_case "default key splits" `Quick test_fec_default_key_splits;
        ]
        @ qsuite [ prop_fec_valid; prop_fec_count_consistent ] );
      ( "vnh",
        [
          Alcotest.test_case "fresh distinct" `Quick test_vnh_fresh_distinct;
          Alcotest.test_case "reset/exhaustion" `Quick test_vnh_reset_and_exhaustion;
        ] );
      ("ppolicy", [ Alcotest.test_case "builders" `Quick test_ppolicy_builders ]);
      ( "config",
        [
          Alcotest.test_case "ports" `Quick test_config_ports;
          Alcotest.test_case "duplicates rejected" `Quick test_config_duplicates_rejected;
          Alcotest.test_case "policy validation" `Quick test_config_policy_validation;
          Alcotest.test_case "reserved port MACs rejected" `Quick
            test_config_reserved_macs_rejected;
          Alcotest.test_case "unknown lookups" `Quick test_config_unknown_lookups;
        ] );
      ( "compile",
        [
          Alcotest.test_case "figure 1 groups" `Quick test_compile_figure1_groups;
          Alcotest.test_case "figure 1 announcements" `Quick
            test_compile_figure1_announcements;
          Alcotest.test_case "figure 1 forwarding" `Quick
            test_compile_figure1_forwarding;
          Alcotest.test_case "rule shape invariants" `Quick
            test_compile_rule_shape_invariants;
          Alcotest.test_case "stats" `Quick test_compile_stats;
          Alcotest.test_case "naive = optimized" `Quick
            test_naive_optimized_equivalent;
          Alcotest.test_case "in-switch tagging equivalent" `Quick
            test_in_switch_tagging_equivalent;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "withdraw stops diversion" `Quick
            test_incremental_withdraw_stops_diversion;
          Alcotest.test_case "best shift" `Quick test_incremental_best_shift;
          Alcotest.test_case "fresh vnh" `Quick test_incremental_new_vnh;
          Alcotest.test_case "no-op update" `Quick test_incremental_noop_update;
          Alcotest.test_case "reoptimize clears" `Quick test_reoptimize_clears_extras;
          Alcotest.test_case "default rewrite follows the best route" `Quick
            test_default_rewrite_follows_best_route;
          Alcotest.test_case "burst accumulates" `Quick test_burst_accumulates;
          Alcotest.test_case "set_policies in place" `Quick
            test_set_policies_in_place;
        ] );
      ( "apps",
        [
          Alcotest.test_case "peering builder" `Quick test_apps_peering_equivalent;
          Alcotest.test_case "inbound split" `Quick test_apps_inbound_split;
          Alcotest.test_case "load balancer shape" `Quick test_apps_load_balancer_shape;
          Alcotest.test_case "firewall" `Quick test_apps_firewall;
          Alcotest.test_case "steer by as-path" `Quick test_apps_steer_by_as_path;
        ] );
      ( "parser",
        [
          Alcotest.test_case "paper examples" `Quick test_parser_paper_examples;
          Alcotest.test_case "pred semantics" `Quick test_parser_pred_semantics;
          Alcotest.test_case "whole pipeline" `Quick test_parser_whole_pipeline;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "error positions" `Quick test_parser_error_positions;
          Alcotest.test_case "reference lint" `Quick test_parser_lint_references;
          Alcotest.test_case "misc forms" `Quick test_parser_misc_forms;
          QCheck_alcotest.to_alcotest prop_parser_print_roundtrip;
          QCheck_alcotest.to_alcotest prop_parser_never_crashes;
          QCheck_alcotest.to_alcotest prop_parser_survives_mutation;
          QCheck_alcotest.to_alcotest prop_scenario_never_crashes;
        ] );
      ( "gateway",
        [
          Alcotest.test_case "establishes all sessions" `Quick
            test_gateway_establishes_all;
          Alcotest.test_case "bytes to re-advertisement" `Quick
            test_gateway_bytes_to_readvertisement;
          Alcotest.test_case "withdrawal propagates" `Quick
            test_gateway_withdrawal_propagates;
          Alcotest.test_case "session loss flushes" `Quick
            test_gateway_session_loss_flushes;
          Alcotest.test_case "table transfer" `Quick test_gateway_table_transfer;
          Alcotest.test_case "re-advertisement bytes" `Quick
            test_gateway_readvertisement_bytes;
          Alcotest.test_case "teardown is one burst" `Quick
            test_gateway_teardown_one_burst;
          QCheck_alcotest.to_alcotest prop_gateway_readvertisement;
          QCheck_alcotest.to_alcotest prop_gateway_hostile_bytes;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "reproduces figure 1" `Quick
            test_scenario_reproduces_figure1;
          Alcotest.test_case "originate" `Quick test_scenario_originate;
          Alcotest.test_case "errors located" `Quick test_scenario_errors_located;
          Alcotest.test_case "policy lint" `Quick test_scenario_policy_lint;
          Alcotest.test_case "serialization roundtrip" `Quick
            test_scenario_serialization_roundtrip;
          Alcotest.test_case "serializes origination" `Quick
            test_scenario_serializes_origination;
          Alcotest.test_case "load shipped file" `Quick test_scenario_load_file;
        ] );
      ( "rpki",
        [ Alcotest.test_case "gates origination" `Quick test_rpki_gates_origination ]
      );
    ]
