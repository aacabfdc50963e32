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
  let witness =
    List.find_map
      (fun (f : Check.finding) ->
        if f.Check.code = "fabric-cycle" then f.Check.witness else None)
      findings
  in
  check_bool "cycle witness provided" true (witness <> None)

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
          Alcotest.test_case "redirect cycle" `Quick
            test_mutation_redirect_cycle;
          Alcotest.test_case "unsatisfiable redirect cycle" `Quick
            test_redirect_cycle_unsatisfiable;
          Alcotest.test_case "unhandled VMAC" `Quick
            test_mutation_unhandled_vmac;
          Alcotest.test_case "shadowed rule lint" `Quick test_shadow_lint;
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
