(* The sdx_check static analyzer: clean artifacts verify clean, and each
   seeded violation class is caught by the matching pass. *)

open Sdx_net
open Sdx_policy
open Sdx_bgp
open Sdx_core
open Sdx_fabric
open Sdx_ixp
module Check = Sdx_check.Check

let check_bool = Alcotest.(check bool)

let has_code code (findings : Check.finding list) =
  List.exists (fun (f : Check.finding) -> f.Check.code = code) findings

let error_with_code code report =
  has_code code (Check.errors report)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let pp_errors r =
  Format.asprintf "%a" Check.pp_report
    { r with Check.findings = Check.errors r }

(* ------------------------------------------------------------------ *)
(* Clean artifacts.                                                    *)

let test_fig1_clean () =
  let runtime = Fig1.make_runtime () in
  let report = Check.runtime runtime in
  check_bool
    (Format.asprintf "figure 1 verifies clean: %s" (pp_errors report))
    false (Check.has_errors report);
  check_bool "checked the whole classifier" true
    (report.Check.rules_checked > 0)

let test_fig1_clean_after_updates () =
  let runtime = Fig1.make_runtime () in
  ignore
    (Runtime.announce runtime ~peer:Fig1.asn_d ~port:0
       (Prefix.of_string "50.0.0.0/8"));
  ignore (Runtime.withdraw runtime ~peer:Fig1.asn_b Fig1.p3);
  let report = Check.runtime runtime in
  check_bool
    (Format.asprintf "fast-path blocks verify clean: %s" (pp_errors report))
    false (Check.has_errors report)

let test_workload_clean () =
  let w = Workload.build (Rng.create ~seed:7) ~participants:15 ~prefixes:120 () in
  let runtime = Workload.runtime w in
  let report = Check.runtime runtime in
  check_bool
    (Format.asprintf "workload verifies clean: %s" (pp_errors report))
    false (Check.has_errors report)

let prop_generated_workloads_clean =
  QCheck.Test.make ~count:8 ~name:"generated workloads verify clean"
    QCheck.(pair (int_range 1 1000) (int_range 4 14))
    (fun (seed, participants) ->
      let w =
        Workload.build (Rng.create ~seed) ~participants
          ~prefixes:(participants * 6) ()
      in
      let runtime = Workload.runtime w in
      let report = Check.runtime runtime in
      if Check.has_errors report then
        QCheck.Test.fail_reportf "seed %d: %s" seed (pp_errors report)
      else true)

let prop_bursts_stay_clean =
  QCheck.Test.make ~count:6 ~name:"fast-path bursts stay clean"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let w = Workload.build rng ~participants:10 ~prefixes:80 () in
      let runtime = Workload.runtime w in
      ignore (Runtime.handle_burst runtime (Workload.burst rng w ~size:5));
      ignore (Runtime.handle_burst runtime (Workload.burst rng w ~size:3));
      let report = Check.runtime runtime in
      if Check.has_errors report then
        QCheck.Test.fail_reportf "seed %d: %s" seed (pp_errors report)
      else true)

(* A 2-switch fabric over the Figure 1 ports (A and B1 on switch 1,
   B2/C/D on switch 2), holding the runtime's committed flows. *)
let two_switch_fabric runtime =
  let fab =
    Fabric.create
      (Topology.create ~switches:[ 1; 2 ]
         ~links:[ (1, 2) ]
         ~port_home:[ (1, 1); (2, 1); (3, 2); (4, 2); (5, 2) ])
  in
  ignore (Fabric.commit fab (Runtime.flows runtime));
  fab

let test_fabric_clean () =
  let runtime = Fig1.make_runtime () in
  let fab = two_switch_fabric runtime in
  let findings = Check.fabric_loops fab in
  check_bool "tree-trunked fabric has no cycles" false
    (has_code "fabric-cycle" findings
    || has_code "hop-bound-exceeded" findings)

(* One concrete packet entering switch [s], walked by first match
   ([Table.lookup]) at every switch it reaches: the (switch, packet) it
   arrives as after each trunk crossing, for at most [hops] crossings. *)
let crossings fab s (pkt : Packet.t) ~hops =
  let topo = Fabric.topo fab in
  let rec go s pkt n acc =
    let next =
      if n = 0 then None
      else
        match
          Sdx_openflow.Table.lookup
            (Sdx_openflow.Switch.table (Fabric.switch fab s) 0)
            pkt
        with
        | None -> None
        | Some f ->
            List.find_map
              (fun (m : Mods.t) ->
                match Option.bind m.port (Topology.trunk_destination topo) with
                | Some (_, nb) ->
                    let inp =
                      Topology.trunk_port topo ~from:nb ~toward_neighbor:s
                    in
                    Some (nb, Mods.apply_at m ~port:inp pkt)
                | None -> None)
              f.Sdx_openflow.Flow.actions
    in
    match next with
    | None -> List.rev acc
    | Some ((nb, pkt') as hop) -> go nb pkt' (n - 1) (hop :: acc)
  in
  go s pkt hops []

(* Two switches, physical port 43 on switch 1 and 44 on switch 2, and
   nothing installed. *)
let two_edge_fabric () =
  Fabric.create
    (Topology.create ~switches:[ 1; 2 ] ~links:[ (1, 2) ]
       ~port_home:[ (43, 1); (44, 2) ])

let install fab s ~priority pattern actions =
  Sdx_openflow.Connection.send (Fabric.connection fab s)
    (Sdx_openflow.Message.add
       (Sdx_openflow.Flow.make ~priority ~pattern ~actions))

(* The trunk port of switch [s] toward the other one. *)
let toward fab s =
  Topology.trunk_port (Fabric.topo fab) ~from:s ~toward_neighbor:(3 - s)

(* The chain that read as a cycle on the 300-participant benchmark
   exchange.  Switch 2's top entry for tag 16, TCP and source port
   38080 delivers, so only frames with other source ports are
   re-stamped with tag 15 toward switch 1, where the entry that would
   send them back matches source port 38080 only. *)
let test_priority_cut_fabric () =
  let tag n = Mac.of_int (0x060000000000 + n) in
  let fab = two_edge_fabric () in
  install fab 2 ~priority:20
    (Pattern.make ~dst_mac:(tag 16) ~proto:6 ~src_port:38080 ())
    [ Mods.make ~port:44 () ];
  install fab 2 ~priority:10
    (Pattern.make ~dst_mac:(tag 16) ~proto:6 ())
    [ Mods.make ~port:(toward fab 2) ~dst_mac:(tag 15) () ];
  install fab 1 ~priority:20
    (Pattern.make ~dst_mac:(tag 15) ~src_port:38080 ())
    [ Mods.make ~port:(toward fab 1) ~dst_mac:(tag 16) () ];
  install fab 1 ~priority:10
    (Pattern.make ~dst_mac:(tag 15) ())
    [ Mods.make ~port:43 () ];
  let findings = Check.fabric_loops fab in
  check_bool "no cycle through the delivered source port" false
    (has_code "fabric-cycle" findings
    || has_code "hop-bound-exceeded" findings
    || has_code "loop-check-truncated" findings)

(* Random entries on the two-switch fabric, stamping small MACs and
   source ports: a concrete packet whose first-match walk comes back to
   a (switch, packet) it was already at loops forever, and the symbolic
   walk must report a loop.  A walk has at most 24 states (2 switches,
   4 MACs, 3 source ports), so 30 crossings always revisit one if the
   packet never leaves. *)
let prop_every_loop_reported =
  let open QCheck2.Gen in
  let opt g = frequency [ (1, return None); (1, map Option.some g) ] in
  let mac = map Mac.of_int (int_range 1 3) and sport = oneofl [ 80; 443 ] in
  let gen_entry =
    let* s = int_range 1 2 in
    let* dst_mac = opt mac in
    let* src_port = opt sport in
    let* out = oneofl [ `Trunk; `Deliver; `Drop ] in
    let* new_mac = opt mac in
    let* new_sport = opt sport in
    return (s, Pattern.make ?dst_mac ?src_port (), out, new_mac, new_sport)
  in
  QCheck2.Test.make ~name:"concrete loops are reported" ~count:2000
    (list_size (int_range 1 8) gen_entry)
    (fun entries ->
      let fab = two_edge_fabric () in
      List.iteri
        (fun i (s, pattern, out, dst_mac, src_port) ->
          install fab s ~priority:(100 - i) pattern
            (match out with
            | `Trunk ->
                [ Mods.make ~port:(toward fab s) ?dst_mac ?src_port () ]
            | `Deliver -> [ Mods.make ~port:(if s = 1 then 43 else 44) () ]
            | `Drop -> []))
        entries;
      let loops (s, port) dst_mac src_port =
        let pkt =
          Packet.make ~port ~dst_mac:(Mac.of_int dst_mac) ~src_port ()
        in
        let hops = crossings fab s pkt ~hops:30 in
        List.exists
          (fun h -> List.length (List.filter (( = ) h) hops) > 1)
          hops
      in
      let concrete =
        List.exists
          (fun ingress ->
            List.exists
              (fun m -> List.exists (loops ingress m) [ 80; 443; 9 ])
              [ 0; 1; 2; 3 ])
          [ (1, 43); (2, 44) ]
      in
      let findings = Check.fabric_loops fab in
      (not concrete)
      || has_code "fabric-cycle" findings
      || has_code "hop-bound-exceeded" findings)

(* ------------------------------------------------------------------ *)
(* Seeded mutations: each violation class is caught by its pass.       *)

(* Mutation 1: strip the in-port pinning from a policy rule — the §4.1
   isolation augmentation — and the isolation pass must object. *)
let test_mutation_unpinned_rule () =
  let runtime = Fig1.make_runtime () in
  let subject = Check.subject_of_runtime runtime in
  let dropped = ref false in
  let rules =
    List.map
      (fun ((r : Classifier.rule), prov) ->
        match prov with
        | Compile.Outbound { via = Some _; _ } when not !dropped ->
            dropped := true;
            ({ r with Classifier.pattern = { r.pattern with Pattern.port = None } }, prov)
        | _ -> (r, prov))
      (Check.rules subject)
  in
  check_bool "found a policy rule to mutate" true !dropped;
  let report = Check.run (Check.with_rules subject rules) in
  check_bool "unpinned rule caught" true
    (error_with_code "unpinned-policy-rule" report);
  let witness =
    List.find_map
      (fun (f : Check.finding) ->
        if f.Check.code = "unpinned-policy-rule" then f.Check.witness else None)
      (Check.errors report)
  in
  check_bool "witness packet provided" true (witness <> None)

(* Mutation 2: re-pin a policy rule to another participant's port. *)
let test_mutation_foreign_ingress () =
  let runtime = Fig1.make_runtime () in
  let config = Runtime.config runtime in
  let subject = Check.subject_of_runtime runtime in
  let mutated = ref false in
  let rules =
    List.map
      (fun ((r : Classifier.rule), prov) ->
        match prov with
        | Compile.Outbound { sender; via = Some _; _ } when not !mutated ->
            let foreign =
              List.concat_map
                (fun (p : Participant.t) ->
                  if Asn.equal p.asn sender then []
                  else Config.switch_ports_of config p.asn)
                (Config.participants config)
            in
            mutated := true;
            ( {
                r with
                Classifier.pattern =
                  { r.pattern with Pattern.port = Some (List.hd foreign) };
              },
              prov )
        | _ -> (r, prov))
      (Check.rules subject)
  in
  check_bool "found a policy rule to mutate" true !mutated;
  let report = Check.run (Check.with_rules subject rules) in
  check_bool "foreign in-port caught" true
    (error_with_code "foreign-ingress" report)

(* Mutation 3: forward toward a prefix the route server no longer
   exports — withdraw behind the runtime's back so the classifier goes
   stale, the situation the BGP pass exists to catch. *)
let test_mutation_stale_export () =
  let runtime = Fig1.make_runtime () in
  let config = Runtime.config runtime in
  (* Both announcers of p3 withdraw directly on the route server; no
     recompilation happens, so every p3 rule is now stale. *)
  ignore (Config.withdraw config ~peer:Fig1.asn_b Fig1.p3);
  ignore (Config.withdraw config ~peer:Fig1.asn_c Fig1.p3);
  let report = Check.runtime runtime in
  check_bool "stale diversion caught" true
    (error_with_code "forward-beyond-export" report);
  check_bool "stale default forwarding caught" true
    (error_with_code "stale-default-forward" report)

(* Mutation 4: splice a forwarding cycle across the two-switch fabric's
   trunk, as a miswired controller would, by sending flow-mods down the
   switches' connections; the symbolic walk must find it. *)
let test_mutation_spliced_cycle () =
  let runtime = Fig1.make_runtime () in
  let fab = two_switch_fabric runtime in
  let topo = Fabric.topo fab in
  let p1t = Topology.trunk_port topo ~from:1 ~toward_neighbor:2 in
  let p2t = Topology.trunk_port topo ~from:2 ~toward_neighbor:1 in
  let splice s ~in_port ~out =
    Sdx_openflow.Connection.send (Fabric.connection fab s)
      (Sdx_openflow.Message.add
         (Sdx_openflow.Flow.make ~priority:(Fabric.transit_base - 1)
            ~pattern:(Pattern.make ~port:in_port ~dst_port:9999 ())
            ~actions:[ Mods.make ~port:out () ]))
  in
  (* Physical ingress on switch 1 enters the bounce; each trunk side
     reflects the packet back across the link. *)
  splice 1 ~in_port:1 ~out:p1t;
  splice 1 ~in_port:p1t ~out:p1t;
  splice 2 ~in_port:p2t ~out:p2t;
  let findings = Check.fabric_loops fab in
  check_bool "spliced cycle caught" true (has_code "fabric-cycle" findings);
  match
    List.find_map
      (fun (f : Check.finding) ->
        if f.Check.code = "fabric-cycle" then
          Option.map (fun w -> (f, w)) f.Check.witness
        else None)
      findings
  with
  | None -> Alcotest.fail "no cycle witness"
  | Some (f, w) ->
      (* The witness stands at the re-entered trunk port; walked by first
         match, it comes back there. *)
      let s, _ = Option.get (Topology.trunk_destination topo w.Packet.port) in
      check_bool "the finding names the witness's (switch, port)" true
        (contains f.Check.detail
           (Printf.sprintf "re-enter switch %d on trunk port %d" s
              w.Packet.port));
      check_bool "the witness re-enters its (switch, port)" true
        (List.exists
           (fun (s', (p : Packet.t)) -> s' = s && p.port = w.Packet.port)
           (crossings fab s w ~hops:4))

(* Mutation 5: a middlebox service chain that bites its own tail — the
   Prelude failure mode. *)
let test_mutation_redirect_cycle () =
  let mac = Mac.of_string and ip = Ipv4.of_string in
  let m1 =
    Participant.make ~asn:(Asn.of_int 65101)
      ~ports:[ (mac "0a:00:00:00:00:01", ip "172.1.0.1") ]
      ~outbound:[ Ppolicy.steer (Pred.dst_port 80) (Asn.of_int 65102) ]
      ()
  in
  let m2 =
    Participant.make ~asn:(Asn.of_int 65102)
      ~ports:[ (mac "0a:00:00:00:00:02", ip "172.1.0.2") ]
      ~outbound:[ Ppolicy.steer (Pred.dst_port 80) (Asn.of_int 65101) ]
      ()
  in
  let runtime = Runtime.create (Config.make [ m1; m2 ]) in
  let report = Check.runtime runtime in
  check_bool "redirect cycle caught" true
    (error_with_code "redirect-cycle" report)

(* Disjoint steering predicates break the cycle: structural cycle only,
   no error. *)
let test_redirect_cycle_unsatisfiable () =
  let mac = Mac.of_string and ip = Ipv4.of_string in
  let m1 =
    Participant.make ~asn:(Asn.of_int 65101)
      ~ports:[ (mac "0a:00:00:00:00:01", ip "172.1.0.1") ]
      ~outbound:[ Ppolicy.steer (Pred.dst_port 80) (Asn.of_int 65102) ]
      ()
  in
  let m2 =
    Participant.make ~asn:(Asn.of_int 65102)
      ~ports:[ (mac "0a:00:00:00:00:02", ip "172.1.0.2") ]
      ~outbound:[ Ppolicy.steer (Pred.dst_port 443) (Asn.of_int 65101) ]
      ()
  in
  let runtime = Runtime.create (Config.make [ m1; m2 ]) in
  let report = Check.runtime runtime in
  check_bool "no satisfiable cycle" false (error_with_code "redirect-cycle" report);
  check_bool "structural cycle still noted" true
    (has_code "redirect-cycle-unsatisfiable" report.Check.findings)

(* Mutation 6: delete a prefix group's stage-2 handler rules; the
   tagging table still writes its VMAC, so the lint pass must flag the
   blackhole. *)
let test_mutation_unhandled_vmac () =
  let runtime = Fig1.make_runtime () in
  let subject = Check.subject_of_runtime runtime in
  let victim =
    match Compile.groups (Runtime.compiled runtime) with
    | g :: _ -> g
    | [] -> Alcotest.fail "no prefix groups"
  in
  let rules =
    List.filter
      (fun ((r : Classifier.rule), _) ->
        match r.Classifier.pattern.Pattern.dst_mac with
        | Some m -> not (Mac.equal m victim.Compile.vmac)
        | None -> true)
      (Check.rules subject)
  in
  let report = Check.run (Check.with_rules subject rules) in
  check_bool "unhandled stage-1 tag caught" true
    (error_with_code "stage1-tag-unhandled" report)

(* Shadowed rules surface as warnings with both rule indices. *)
let test_shadow_lint () =
  let runtime = Fig1.make_runtime () in
  let subject = Check.subject_of_runtime runtime in
  let rules = Check.rules subject in
  let shadowed =
    (* Appended after the catch-all, so the catch-all covers it with a
       different action. *)
    ( {
        Classifier.pattern = Pattern.make ~dst_port:8080 ();
        action = [ Mods.make ~port:1 () ];
      },
      Compile.Unattributed )
  in
  let report =
    Check.run ~passes:[ "lints" ] (Check.with_rules subject (rules @ [ shadowed ]))
  in
  check_bool "shadowed rule reported" true
    (has_code "shadowed-rule" (Check.warnings report))

(* ------------------------------------------------------------------ *)
(* Incremental checking: the dirty-set protocol cross-validated against
   the full pass.                                                       *)

let test_incremental_after_burst () =
  let runtime = Fig1.make_runtime () in
  (* Creation rebuilds the whole table, so the first consumer must fall
     back to a full pass. *)
  check_bool "fresh runtime reports a rebuild" true
    (Runtime.consume_dirty runtime = None);
  let stats =
    Runtime.announce runtime ~peer:Fig1.asn_d ~port:0
      (Prefix.of_string "50.0.0.0/8")
  in
  check_bool "fast path installed rules" true (stats.Runtime.extra_rules > 0);
  (match Runtime.last_dirty runtime with
  | None -> Alcotest.fail "expected a dirty-set after a fast-path burst"
  | Some d ->
      check_bool "dirty rules recorded" true (d.Runtime.dirty_rules <> []);
      check_bool "dirty groups recorded" true (d.Runtime.dirty_groups <> []);
      let subject = Check.subject_of_runtime runtime in
      let report = Check.run_incremental ~dirty:d subject in
      check_bool
        (Format.asprintf "incremental verifies clean: %s" (pp_errors report))
        false (Check.has_errors report);
      check_bool "scoped to the dirty rules" true
        (report.Check.rules_checked > 0
        && report.Check.rules_checked <= List.length d.Runtime.dirty_rules);
      check_bool "loop pass skipped" false
        (List.mem "loops" report.Check.passes_run));
  ignore (Runtime.consume_dirty runtime);
  (* Consuming resets the accumulator to the empty dirty-set... *)
  (match Runtime.consume_dirty runtime with
  | Some d -> check_bool "empty after consume" true (d.Runtime.dirty_rules = [])
  | None -> Alcotest.fail "expected the empty dirty-set after consuming");
  (* ...and a re-optimization invalidates it outright, forcing the
     runtime_incremental entry point into its full-pass fallback. *)
  ignore (Runtime.reoptimize runtime);
  let report = Check.runtime_incremental runtime in
  check_bool "fallback ran the full pass" true
    (List.mem "loops" report.Check.passes_run);
  check_bool
    (Format.asprintf "fallback verifies clean: %s" (pp_errors report))
    false (Check.has_errors report)

(* Staleness seeded into the dirty rules themselves must be caught by the
   inline incremental check — the per-burst always-on mode. *)
let test_incremental_catches_stale_burst () =
  let runtime = Fig1.make_runtime () in
  ignore (Runtime.consume_dirty runtime);
  let p_new = Prefix.of_string "50.0.0.0/8" in
  ignore (Runtime.announce runtime ~peer:Fig1.asn_d ~port:0 p_new);
  (* Withdraw behind the runtime's back: the just-installed fast-path
     block goes stale, and its rules are exactly the dirty ones. *)
  ignore (Config.withdraw (Runtime.config runtime) ~peer:Fig1.asn_d p_new);
  let report = Check.runtime_incremental runtime in
  check_bool "incremental passes only" false
    (List.mem "loops" report.Check.passes_run);
  check_bool "stale dirty rules caught incrementally" true
    (error_with_code "forward-beyond-export" report
    || error_with_code "stale-default-forward" report)

(* Precision: a violation seeded OUTSIDE the dirty-set is skipped by the
   incremental pass (that is the whole point — the periodic full
   checkpoints cover untouched rules) while the full pass still sees it. *)
let test_incremental_scopes_to_dirty () =
  let runtime = Fig1.make_runtime () in
  ignore (Runtime.consume_dirty runtime);
  ignore
    (Runtime.announce runtime ~peer:Fig1.asn_d ~port:0
       (Prefix.of_string "50.0.0.0/8"));
  let dirty =
    match Runtime.consume_dirty runtime with
    | Some d -> d
    | None -> Alcotest.fail "expected a dirty-set"
  in
  let subject = Check.subject_of_runtime runtime in
  let mutated = ref None in
  let rules =
    List.mapi
      (fun i ((r : Classifier.rule), prov) ->
        match prov with
        | Compile.Outbound { via = Some _; _ }
          when !mutated = None && not (List.mem i dirty.Runtime.dirty_rules) ->
            mutated := Some i;
            ( {
                r with
                Classifier.pattern = { r.pattern with Pattern.port = None };
              },
              prov )
        | _ -> (r, prov))
      (Check.rules subject)
  in
  check_bool "found an untouched policy rule to mutate" true (!mutated <> None);
  let mutated_subject = Check.with_rules subject rules in
  let full = Check.run mutated_subject in
  check_bool "full pass catches the mutation" true
    (error_with_code "unpinned-policy-rule" full);
  let inc = Check.run_incremental ~dirty mutated_subject in
  check_bool "incremental skips the untouched rule" false
    (error_with_code "unpinned-policy-rule" inc)

let prop_incremental_cross_validates =
  QCheck.Test.make ~count:6
    ~name:"incremental findings cross-validate against the full pass"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let w = Workload.build rng ~participants:10 ~prefixes:80 () in
      let runtime = Workload.runtime w in
      ignore (Runtime.consume_dirty runtime);
      ignore (Runtime.handle_burst runtime (Workload.burst rng w ~size:5));
      ignore (Runtime.handle_burst runtime (Workload.burst rng w ~size:3));
      match Runtime.consume_dirty runtime with
      | None -> true (* a burst fell forward into a rebuild; full pass covers it *)
      | Some dirty ->
          let subject = Check.subject_of_runtime runtime in
          let inc = Check.run_incremental ~dirty subject in
          let full = Check.run ~passes:Check.incremental_passes subject in
          let key (f : Check.finding) =
            (f.Check.pass, f.Check.code, f.Check.rules)
          in
          let full_keys = List.map key full.Check.findings in
          let missing =
            List.filter
              (fun f -> not (List.mem (key f) full_keys))
              inc.Check.findings
          in
          if missing <> [] then
            QCheck.Test.fail_reportf
              "seed %d: incremental-only finding(s) absent from the full \
               pass: %s"
              seed
              (pp_errors { inc with Check.findings = missing })
          else if Check.has_errors inc then
            QCheck.Test.fail_reportf "seed %d: %s" seed (pp_errors inc)
          else true)

(* ------------------------------------------------------------------ *)
(* The BGP pass's first-match probe.                                   *)

let small_prefixes =
  List.map Prefix.of_string
    [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24"; "20.0.0.0/8"; "20.3.0.0/16" ]

let small_ips =
  List.map Ipv4.of_string
    [ "10.1.2.3"; "10.200.0.1"; "20.3.4.5"; "20.0.0.7"; "9.9.9.9" ]

let gen_pattern =
  let open QCheck2.Gen in
  let opt g = frequency [ (2, return None); (1, map Option.some g) ] in
  let* port = opt (int_range 1 3) in
  let* dst_mac = opt (map Mac.of_int (int_range 1 2)) in
  let* src_ip = opt (oneofl small_prefixes) in
  let* dst_ip = opt (oneofl small_prefixes) in
  let* proto = opt (oneofl [ 6; 17 ]) in
  let* dst_port = opt (oneofl [ 80; 443 ]) in
  return (Pattern.make ?port ?dst_mac ?src_ip ?dst_ip ?proto ?dst_port ())

let gen_mods =
  let open QCheck2.Gen in
  let opt g = frequency [ (2, return None); (1, map Option.some g) ] in
  let* port = opt (int_range 0 3) in
  let* dst_ip = opt (oneofl small_ips) in
  let* dst_port = opt (oneofl [ 80; 443 ]) in
  return (Mods.make ?port ?dst_ip ?dst_port ())

let gen_classifier =
  let open QCheck2.Gen in
  let gen_action = list_size (int_range 0 2) gen_mods in
  let gen_rule =
    let* pattern = gen_pattern in
    let* action = gen_action in
    return { Classifier.pattern; action }
  in
  list_size (int_range 0 15) gen_rule

let gen_packet =
  let open QCheck2.Gen in
  let* port = int_range 0 4 in
  let* dst_mac = map Mac.of_int (int_range 1 3) in
  let* src_ip = oneofl small_ips in
  let* dst_ip = oneofl small_ips in
  let* proto = oneofl [ 6; 17 ] in
  let* dst_port = oneofl [ 80; 443; 9999 ] in
  return (Packet.make ~port ~dst_mac ~src_ip ~dst_ip ~proto ~dst_port ())

(* The index the checker's table probe returns is the position of the
   rule a linear first-match scan finds. *)
let prop_first_match_probe =
  QCheck2.Test.make ~name:"table probe = first matching rule" ~count:500
    QCheck2.Gen.(pair gen_classifier (list_size (int_range 1 20) gen_packet))
    (fun (c, pkts) ->
      let probe = Check.first_match c in
      List.for_all
        (fun pkt ->
          probe pkt
          = Option.bind (Classifier.first_match c pkt) (fun r ->
                List.find_index (fun r' -> r' == r) c))
        pkts)

(* The probe is checker scratch, not switch state: a [bgp] pass moves
   none of the table metrics a daemon reports. *)
let test_bgp_pass_leaves_table_metrics () =
  let runtime = Fig1.make_runtime () in
  let counters =
    List.map
      (fun name -> (name, Sdx_obs.Registry.counter name))
      [
        "sdx_openflow_flow_mods_total";
        "sdx_openflow_installs_total";
        "sdx_openflow_removes_total";
        "sdx_openflow_engine_rebuilds_total";
        "sdx_openflow_snapshot_builds_total";
      ]
  in
  let read () =
    List.map (fun (_, c) -> Sdx_obs.Registry.Counter.value c) counters
  in
  let before = read () in
  let report = Check.runtime ~passes:[ "bgp" ] runtime in
  check_bool (pp_errors report) false (Check.has_errors report);
  List.iter2
    (fun (name, _) (b, a) -> Alcotest.(check int) name b a)
    counters
    (List.combine before (read ()))

let () =
  Alcotest.run "sdx_check"
    [
      ( "clean",
        [
          Alcotest.test_case "figure 1" `Quick test_fig1_clean;
          Alcotest.test_case "figure 1 + updates" `Quick
            test_fig1_clean_after_updates;
          Alcotest.test_case "workload" `Quick test_workload_clean;
          Alcotest.test_case "two-switch fabric" `Quick test_fabric_clean;
          Alcotest.test_case "priority-cut fabric" `Quick
            test_priority_cut_fabric;
          QCheck_alcotest.to_alcotest prop_generated_workloads_clean;
          QCheck_alcotest.to_alcotest prop_bursts_stay_clean;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "unpinned policy rule" `Quick
            test_mutation_unpinned_rule;
          Alcotest.test_case "foreign ingress" `Quick
            test_mutation_foreign_ingress;
          Alcotest.test_case "stale export" `Quick test_mutation_stale_export;
          Alcotest.test_case "spliced fabric cycle" `Quick
            test_mutation_spliced_cycle;
          QCheck_alcotest.to_alcotest prop_every_loop_reported;
          Alcotest.test_case "redirect cycle" `Quick
            test_mutation_redirect_cycle;
          Alcotest.test_case "unsatisfiable redirect cycle" `Quick
            test_redirect_cycle_unsatisfiable;
          Alcotest.test_case "unhandled VMAC" `Quick
            test_mutation_unhandled_vmac;
          Alcotest.test_case "shadowed rule lint" `Quick test_shadow_lint;
        ] );
      ( "first match",
        [
          QCheck_alcotest.to_alcotest prop_first_match_probe;
          Alcotest.test_case "bgp pass leaves table metrics" `Quick
            test_bgp_pass_leaves_table_metrics;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "dirty-set after a burst" `Quick
            test_incremental_after_burst;
          Alcotest.test_case "catches a stale burst inline" `Quick
            test_incremental_catches_stale_burst;
          Alcotest.test_case "scopes to the dirty rules" `Quick
            test_incremental_scopes_to_dirty;
          QCheck_alcotest.to_alcotest prop_incremental_cross_validates;
        ] );
    ]
