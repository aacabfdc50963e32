(* VNH lifecycle and churn survival: typed allocation, reclamation,
   transactional bursts that fall forward instead of crashing, the ARP
   drift detector, and a randomized soak that drives the runtime past
   both the VNH-pressure and priority-ceiling boundaries while asserting
   classifier equivalence with a from-scratch recompile. *)

open Sdx_net
open Sdx_core
open Sdx_ixp
module Check = Sdx_check.Check
module Responder = Sdx_arp.Responder

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pp_errors r =
  Format.asprintf "%a" Check.pp_report
    { r with Check.findings = Check.errors r }

(* ------------------------------------------------------------------ *)
(* Vnh: typed allocation, free-list reuse, guards.                     *)

let test_vnh_alloc_release_reuse () =
  let v = Vnh.create ~pool:(Prefix.of_string "172.16.0.0/28") () in
  check_int "capacity excludes the network address" 15 (Vnh.capacity v);
  let ip1, mac1 = Vnh.fresh v in
  let ip2, _ = Vnh.fresh v in
  check_int "two live" 2 (Vnh.allocated v);
  check_bool "release succeeds" true (Vnh.release v ip1);
  check_int "one live after release" 1 (Vnh.allocated v);
  check_int "one reclaimed" 1 (Vnh.reclaimed_total v);
  check_int "peak unchanged by release" 2 (Vnh.peak_live v);
  (* The free-list is LIFO and an index keeps its identity. *)
  let ip1', mac1' = Vnh.fresh v in
  check_bool "released pair is reused" true
    (Ipv4.equal ip1 ip1' && Mac.equal mac1 mac1');
  check_bool "distinct from the other live VNH" false (Ipv4.equal ip1' ip2)

let test_vnh_release_guards () =
  let v = Vnh.create ~pool:(Prefix.of_string "172.16.0.0/28") () in
  let ip, _ = Vnh.fresh v in
  check_bool "double release rejected" true
    (Vnh.release v ip && not (Vnh.release v ip));
  check_bool "foreign address rejected" false
    (Vnh.release v (Ipv4.of_string "10.0.0.1"));
  check_bool "never-allocated index rejected" false
    (Vnh.release v (Prefix.host (Prefix.of_string "172.16.0.0/28") 9));
  check_int "guards reclaim nothing extra" 1 (Vnh.reclaimed_total v)

let test_vnh_typed_exhaustion () =
  let v = Vnh.create ~pool:(Prefix.of_string "172.16.0.0/30") () in
  check_int "three usable addresses" 3 (Vnh.capacity v);
  for _ = 1 to 3 do
    match Vnh.alloc v with
    | `Fresh _ -> ()
    | `Exhausted -> Alcotest.fail "exhausted before capacity"
  done;
  check_bool "alloc reports exhaustion" true (Vnh.alloc v = `Exhausted);
  check_bool "fresh raises on exhaustion" true
    (match Vnh.fresh v with
    | exception Failure _ -> true
    | _ -> false);
  check_bool "pressure saturates at 1" true (Vnh.pressure v >= 1.0);
  let ip = Prefix.host (Prefix.of_string "172.16.0.0/30") 2 in
  check_bool "release reopens the pool" true (Vnh.release v ip);
  check_bool "alloc succeeds again" true
    (match Vnh.alloc v with `Fresh _ -> true | `Exhausted -> false)

(* ------------------------------------------------------------------ *)
(* Responder.diff: the drift detector behind the arp check pass.       *)

let test_responder_diff () =
  let ip i = Ipv4.of_string (Printf.sprintf "172.16.0.%d" i) in
  let mac i = Mac.of_int (0x02_00_00_00_00_00 + i) in
  let r = Responder.create () in
  Responder.register r (ip 1) (mac 1);
  check_bool "agreement is empty" true
    (Responder.diff r ~expected:[ (ip 1, mac 1) ] = []);
  check_bool "missing binding reported" true
    (List.mem
       (Responder.Missing (ip 2, mac 2))
       (Responder.diff r ~expected:[ (ip 1, mac 1); (ip 2, mac 2) ]));
  Responder.register r (ip 1) (mac 9);
  check_bool "stale binding reported" true
    (List.mem
       (Responder.Stale (ip 1, mac 1, mac 9))
       (Responder.diff r ~expected:[ (ip 1, mac 1) ]));
  Responder.register r (ip 3) (mac 3);
  check_bool "orphaned binding reported" true
    (List.mem
       (Responder.Orphaned (ip 3, mac 3))
       (Responder.diff r ~expected:[ (ip 1, mac 1) ]))

let test_arp_pass_catches_drift () =
  let w = Workload.build (Rng.create ~seed:11) ~participants:8 ~prefixes:50 () in
  let runtime = Workload.runtime w in
  let report = Check.runtime runtime in
  check_bool
    (Format.asprintf "fresh runtime verifies clean: %s" (pp_errors report))
    false
    (Check.has_errors report);
  (* An orphaned answer — a retired VNH nobody unregistered — is an
     error finding, not a silent hazard. *)
  Responder.register (Runtime.arp runtime)
    (Ipv4.of_string "172.16.77.77")
    (Mac.of_int 0x02_00_00_77_77_77);
  let report = Check.runtime runtime in
  check_bool "orphaned binding is an error" true
    (List.exists
       (fun (f : Check.finding) -> f.Check.code = "orphaned-arp-binding")
       (Check.errors report));
  Responder.unregister (Runtime.arp runtime) (Ipv4.of_string "172.16.77.77");
  (* A VNH the classifier rewrites to but the responder cannot resolve
     is the opposite drift. *)
  (match Compile.active_groups (Runtime.compiled runtime) with
  | [] -> Alcotest.fail "workload compiled to no groups"
  | g :: _ -> Responder.unregister (Runtime.arp runtime) g.Compile.vnh);
  let report = Check.runtime runtime in
  check_bool "missing binding is an error" true
    (List.exists
       (fun (f : Check.finding) -> f.Check.code = "arp-binding-missing")
       (Check.errors report))

(* ------------------------------------------------------------------ *)
(* Transactional bursts: exhaustion falls forward, never raises.       *)

let test_burst_survives_exhausted_pool () =
  let rng = Rng.create ~seed:5 in
  let w = Workload.build rng ~participants:5 ~prefixes:20 () in
  let vnh_pool = Prefix.of_string "172.16.0.0/27" in
  let runtime = Runtime.create ~vnh_pool w.Workload.config in
  (* Drain whatever the base compile left so the next fast-path batch
     cannot reserve a single VNH. *)
  let drained = ref 0 in
  let rec drain () =
    match Vnh.alloc (Runtime.vnh runtime) with
    | `Fresh _ ->
        incr drained;
        drain ()
    | `Exhausted -> ()
  in
  drain ();
  check_bool "pool is drained" true (!drained > 0);
  let stats = Runtime.handle_burst runtime (Workload.burst rng w ~size:3) in
  check_int "burst was processed, not dropped" 3 (List.length stats);
  check_bool "fell forward into a full recompile" true
    (Runtime.reoptimize_count runtime >= 1);
  (* Roll-forward means the data plane reflects the post-burst RIB:
     equivalent to compiling the same state from scratch. *)
  let reference = Runtime.create (Runtime.config runtime) in
  check_bool "equivalent to a from-scratch recompile" true
    (Replay.forwarding_divergences runtime ~reference = []);
  let report = Check.runtime runtime in
  check_bool
    (Format.asprintf "state verifies clean after fallback: %s"
       (pp_errors report))
    false
    (Check.has_errors report);
  (* The failed batch is transactional: it must not have recorded any
     group churn before rolling forward. *)
  let churn = Runtime.churn runtime in
  check_int "failed batch minted nothing" 0 churn.Runtime.churn_groups_minted;
  check_int "failed batch migrated nothing" 0
    churn.Runtime.churn_prefixes_migrated

(* ------------------------------------------------------------------ *)
(* Interned grouping: class migration, retirement, and the naive
   oracle (ISSUE 9).                                                   *)

(* Withdrawing B's p3 route leaves p3 with exactly p4's signature (only
   C announces it, same candidate fingerprint), so the fast path must
   migrate p3 into p4's already-interned class: a VNH rebind with zero
   new rules. *)
let test_migration_rebind_without_rules () =
  let runtime = Fig1.make_runtime () in
  let gid p =
    (Option.get (Compile.group_of_prefix (Runtime.compiled runtime) p))
      .Compile.id
  in
  check_bool "p3 and p4 start in different classes" true
    (gid Fig1.p3 <> gid Fig1.p4);
  let stats = Runtime.withdraw runtime ~peer:Fig1.asn_b Fig1.p3 in
  check_bool "withdrawal moved the best path" true stats.Runtime.best_changed;
  check_int "migration installed no rules" 0 stats.Runtime.extra_rules;
  check_int "p3 joined p4's class" (gid Fig1.p4) (gid Fig1.p3);
  let churn = Runtime.churn runtime in
  check_int "one migration" 1 churn.Runtime.churn_prefixes_migrated;
  check_int "no group minted" 0 churn.Runtime.churn_groups_minted;
  check_int "no group retired" 0 churn.Runtime.churn_groups_retired;
  let report = Check.runtime runtime in
  check_bool
    (Format.asprintf "state verifies clean after migration: %s"
       (pp_errors report))
    false
    (Check.has_errors report)

(* A novel announcement mints a fast-path class; fully withdrawing it
   retires the class.  The tombstone must survive while the minting
   block's provenance still names it and vanish with the stack at the
   next re-optimization — while the cumulative churn totals persist. *)
let test_withdraw_storm_retires_and_compacts () =
  let runtime = Fig1.make_runtime () in
  let p6 = Fig1.pfx "20.0.6.0/24" in
  ignore (Runtime.announce runtime ~peer:Fig1.asn_b ~port:0 p6);
  let churn = Runtime.churn runtime in
  check_int "novel signature minted a class" 1 churn.Runtime.churn_groups_minted;
  ignore (Runtime.withdraw runtime ~peer:Fig1.asn_b p6);
  let churn = Runtime.churn runtime in
  check_int "full withdrawal retired the class" 1
    churn.Runtime.churn_groups_retired;
  check_bool "tombstone held while provenance references it" true
    (Runtime.retired_tombstone_count runtime >= 1);
  let report = Check.runtime runtime in
  check_bool
    (Format.asprintf "state verifies clean after retirement: %s"
       (pp_errors report))
    false
    (Check.has_errors report);
  ignore (Runtime.reoptimize runtime);
  check_int "re-optimization clears the tombstones" 0
    (Runtime.retired_tombstone_count runtime);
  let churn = Runtime.churn runtime in
  check_int "churn totals survive re-optimization" 1
    churn.Runtime.churn_groups_retired

(* Two classes that differ only in their origin-band bits — same
   via-clause membership, same default fingerprint (after the
   withdrawal), same FIRST originator — must stay distinct through the
   fast path.  A class table keyed on anything less than the full
   export vector (the pre-fix key used the first originator only)
   collides them, migrating q1 into q2's class even though only q2 is
   originated by B.  The compiler is driven directly (no [Runtime]):
   [Runtime.create] also announces a placeholder route per originator,
   which would hide the collision inside the fingerprint. *)
let test_secondary_originator_classes_stay_distinct () =
  let pfx = Prefix.of_string in
  let q1 = pfx "30.0.1.0/24" and q2 = pfx "30.0.2.0/24" in
  let asn = Sdx_bgp.Asn.of_int in
  let asn_a = asn 100
  and asn_b = asn 200
  and asn_c = asn 300
  and asn_d = asn 400 in
  let part asn octet ?originated () =
    Participant.make ~asn
      ~ports:
        [
          ( Mac.of_string (Printf.sprintf "0a:00:00:00:00:%02x" octet),
            Ipv4.of_string (Printf.sprintf "172.0.1.%d" octet) );
        ]
      ?originated ()
  in
  let config =
    Config.make
      [
        part asn_a 1 ~originated:[ q1; q2 ] ();
        part asn_b 2 ~originated:[ q2 ] ();
        part asn_c 3 ();
        part asn_d 4 ();
      ]
  in
  let far = asn 65001 in
  List.iter
    (fun (peer, prefix, as_path) ->
      ignore (Config.announce config ~peer ~port:0 ~as_path prefix))
    [
      (asn_c, q1, [ asn_c; far ]);
      (asn_c, q2, [ asn_c; far ]);
      (asn_d, q1, [ asn_d ]);
    ];
  let vnh = Vnh.create () in
  let compiled = Compile.compile config vnh in
  let gid p = (Option.get (Compile.group_of_prefix compiled p)).Compile.id in
  check_bool "q1 and q2 start in different classes" true (gid q1 <> gid q2);
  (* After the withdrawal q1's candidate set equals q2's, so everything
     except the origin band matches q2's interned class. *)
  ignore (Config.withdraw config ~peer:asn_d q1);
  (match Compile.compile_update_batch compiled config vnh [ q1 ] with
  | Error `Vnh_exhausted -> Alcotest.fail "VNH pool exhausted"
  | Ok batch ->
      check_int "novel signature minted a class" 1
        (List.length batch.Compile.batch_groups);
      check_int "nothing migrated" 0 batch.Compile.batch_migrated);
  check_bool "q1 stays out of q2's class" true (gid q1 <> gid q2);
  check_bool "q1's class holds exactly q1" true
    ((Option.get (Compile.group_of_prefix compiled q1)).Compile.prefixes
    = [ q1 ])

(* The interned export-vector pipeline must produce the same partition
   as the naive oracle (per-spec reachability sets + pairwise Fec
   partition), and the same classifier when compiled under either
   grouping, on randomly churned RIBs. *)
let prop_interned_matches_naive =
  QCheck.Test.make ~count:25
    ~name:"interned grouping = naive oracle on random churned RIBs"
    QCheck.(
      triple (int_range 1 10_000) (int_range 2 16) (int_range 5 120))
    (fun (seed, participants, prefixes) ->
      let rng = Rng.create ~seed in
      let w = Workload.build rng ~participants ~prefixes () in
      (* Churn the RIBs away from the freshly built state first. *)
      List.iter
        (fun u ->
          ignore (Sdx_bgp.Route_server.apply (Config.server w.Workload.config) u))
        (Workload.burst rng w ~size:(5 + Rng.int rng 20));
      let interned = Compile.compile w.Workload.config (Vnh.create ()) in
      let parts =
        List.map
          (fun (g : Compile.group) -> g.Compile.prefixes)
          (Compile.groups interned)
      in
      let naive_parts = Compile.group_partition_naive w.Workload.config in
      if parts <> naive_parts then
        QCheck.Test.fail_reportf
          "seed %d (%d participants, %d prefixes): interned partition (%d \
           cells) differs from the naive oracle (%d cells)"
          seed participants prefixes (List.length parts)
          (List.length naive_parts);
      let naive =
        Compile.compile ~grouping:`Naive w.Workload.config (Vnh.create ())
      in
      if Compile.classifier interned <> Compile.classifier naive then
        QCheck.Test.fail_reportf
          "seed %d: classifiers differ between `Interned and `Naive grouping"
          seed;
      true)

(* ------------------------------------------------------------------ *)
(* Soak: random churn across both lifecycle boundaries.                *)

(* A /26 pool (63 VNHs) over 60 prefixes crosses the 80% pressure
   threshold under churn while still fitting a from-scratch recompile;
   an extras ceiling a few hundred priorities above the floor (well
   under the global ceiling the lints assume) forces the
   priority-ceiling re-optimization too. *)
let soak_once ~seed ~updates =
  let rng = Rng.create ~seed in
  let w = Workload.build rng ~participants:8 ~prefixes:60 () in
  let vnh_pool = Prefix.of_string "172.16.0.0/26" in
  let extras_ceiling = Runtime.extras_floor + 400 in
  let runtime = Runtime.create ~vnh_pool ~extras_ceiling w.Workload.config in
  let config =
    {
      Replay.target_updates = updates;
      checkpoint_every = max 1 (updates / 4);
      fault_every = 10;
      storm_size = 20;
      train_length = 15;
      max_burst = 4;
      check_every = 1;
    }
  in
  let check rt = List.length (Check.errors (Check.runtime rt)) in
  let check_incremental rt =
    List.length (Check.errors (Check.runtime_incremental rt))
  in
  (Replay.soak ~config ~check ~check_incremental rng w runtime, runtime)

let prop_soak_survives =
  QCheck.Test.make ~count:5
    ~name:"random churn past VNH-pressure and ceiling boundaries stays clean"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let r, _ = soak_once ~seed ~updates:1_500 in
      if r.Replay.soak_check_errors > 0 then
        QCheck.Test.fail_reportf "seed %d: %d sdx_check error(s) at checkpoints"
          seed r.Replay.soak_check_errors;
      if r.Replay.soak_equiv_divergences > 0 then
        QCheck.Test.fail_reportf
          "seed %d: %d divergence(s) from a from-scratch recompile" seed
          r.Replay.soak_equiv_divergences;
      if r.Replay.soak_incremental_errors > 0 then
        QCheck.Test.fail_reportf
          "seed %d: %d error(s) from inline incremental checks" seed
          r.Replay.soak_incremental_errors;
      r.Replay.soak_updates >= 1_500)

let test_soak_exercises_lifecycle () =
  let r, runtime = soak_once ~seed:42 ~updates:3_000 in
  check_int "no checkpoint errors" 0 r.Replay.soak_check_errors;
  check_int "no forwarding divergences" 0 r.Replay.soak_equiv_divergences;
  check_bool "inline checks ran on every burst" true
    (r.Replay.soak_incremental_checks >= r.Replay.soak_bursts);
  check_int "no inline incremental errors" 0 r.Replay.soak_incremental_errors;
  check_bool "VNHs were reclaimed" true (r.Replay.soak_vnh_reclaimed > 0);
  check_bool "the background stage ran" true
    (r.Replay.soak_reoptimizations >= 1);
  check_bool "faults were injected" true
    (r.Replay.soak_withdraw_storms + r.Replay.soak_session_flaps
     + r.Replay.soak_duplicate_trains + r.Replay.soak_same_prefix_trains
    > 0);
  check_bool "live VNHs stayed within the pool" true
    (r.Replay.soak_vnh_peak_live <= r.Replay.soak_vnh_capacity);
  check_bool "pool never grew past capacity" true
    (Vnh.allocated (Runtime.vnh runtime) <= Vnh.capacity (Runtime.vnh runtime))

(* ------------------------------------------------------------------ *)
(* The rebuild equals a fresh compile, up to renaming.                 *)

(* Matches the runtime's classes to those of a fresh [Compile.compile]
   of the same route-server state by member set, renames group ids, VNHs
   and VMACs accordingly, and returns the first disagreement: classes,
   default variants, classifier, provenance, ARP bindings, any
   receiver's announcement, live VNHs, or a [Check.runtime] error that
   a fresh runtime does not report. *)
let rebuild_mismatch runtime =
  let config = Runtime.config runtime in
  let live = Runtime.compiled runtime in
  let fresh = Compile.compile config (Vnh.create ()) in
  let twins = Hashtbl.create 64 in
  List.iter
    (fun (g : Compile.group) -> Hashtbl.replace twins g.prefixes g)
    (Compile.groups fresh);
  let ids = Hashtbl.create 64
  and vnhs = Hashtbl.create 64
  and vmacs = Hashtbl.create 64 in
  let rename tbl x = Option.value (Hashtbl.find_opt tbl x) ~default:x in
  let orphan =
    List.find_opt
      (fun (g : Compile.group) ->
        match Hashtbl.find_opt twins g.prefixes with
        | Some f when f.Compile.default_variants = g.default_variants ->
            Hashtbl.replace ids g.id f.Compile.id;
            Hashtbl.replace vnhs g.vnh f.Compile.vnh;
            Hashtbl.replace vmacs g.vmac f.Compile.vmac;
            false
        | _ -> true)
      (Compile.groups live)
  in
  let rename_rule (r : Sdx_policy.Classifier.rule) =
    {
      r with
      pattern =
        {
          r.pattern with
          dst_mac = Option.map (rename vmacs) r.pattern.Sdx_policy.Pattern.dst_mac;
        };
    }
  in
  let rename_provenance = function
    | Compile.Outbound o ->
        Compile.Outbound { o with group = Option.map (rename ids) o.group }
    | Compile.Group_default { group } ->
        Compile.Group_default { group = rename ids group }
    | p -> p
  in
  let rename_route =
    Option.map (fun (r : Sdx_bgp.Route.t) ->
        Sdx_bgp.Route.with_next_hop (rename vnhs r.next_hop) r)
  in
  let sorted l = List.sort compare l in
  let receivers = List.map (fun (p : Participant.t) -> p.asn) (Config.participants config) in
  let prefixes = Sdx_bgp.Route_server.all_prefixes (Config.server config) in
  match orphan with
  | Some g ->
      Some
        (Format.asprintf "class g%d (%d members from %a) has no fresh twin" g.id
           (List.length g.prefixes) Prefix.pp (List.hd g.prefixes))
  | None ->
      if List.length (Compile.groups live) <> List.length (Compile.groups fresh)
      then
        Some
          (Printf.sprintf "%d classes, a fresh compile has %d"
             (List.length (Compile.groups live))
             (List.length (Compile.groups fresh)))
      else if
        List.map rename_rule (Compile.classifier live) <> Compile.classifier fresh
      then Some "classifiers differ"
      else if
        List.map (fun (p, n) -> (rename_provenance p, n)) (Compile.provenance live)
        <> Compile.provenance fresh
      then Some "provenance differs"
      else if
        sorted
          (List.map
             (fun (ip, mac) -> (rename vnhs ip, rename vmacs mac))
             (Responder.bindings (Compile.arp live)))
        <> sorted (Responder.bindings (Compile.arp fresh))
      then Some "ARP bindings differ"
      else if
        List.exists
          (fun receiver ->
            List.exists
              (fun prefix ->
                rename_route (Compile.announcement live config ~receiver prefix)
                <> Compile.announcement fresh config ~receiver prefix)
              prefixes)
          receivers
      then Some "announcements differ"
      else if
        Vnh.allocated (Runtime.vnh runtime) <> List.length (Compile.groups live)
      then
        Some
          (Printf.sprintf "%d live VNHs for %d classes"
             (Vnh.allocated (Runtime.vnh runtime))
             (List.length (Compile.groups live)))
      else
        (* The checker may still flag what a fresh compile gets wrong
           too (the default variants' missing loop prevention, see
           CHANGES.md); the re-optimization must add nothing to it. *)
        let report = Check.runtime runtime in
        let errors r =
          List.map (fun (f : Check.finding) -> (f.code, f.rules)) (Check.errors r)
        in
        if errors report <> errors (Check.runtime (Runtime.create config)) then
          Some (pp_errors report)
        else None

(* An 8-participant exchange whose largest participant also
   load-balances a service address onto an instance inside one of the
   announced prefixes: a [Default] clause resolving through the route
   server. *)
let rewrite_exchange rng =
  let w = Workload.build rng ~participants:8 ~prefixes:60 () in
  let target = Rng.pick rng w.Workload.universe in
  let instance = Prefix.host target 9 in
  let lb = (List.hd w.Workload.specs).Population.asn in
  let config =
    Config.with_policies w.Workload.config (fun (p : Participant.t) ->
        if Sdx_bgp.Asn.equal p.asn lb then
          ( Apps.wide_area_load_balancer
              ~service:(Ipv4.of_string "198.51.100.7")
              ~default_instance:instance ~pinned:[]
            @ p.inbound,
            p.outbound )
        else (p.inbound, p.outbound))
  in
  ({ w with Workload.config }, target)

(* One random burst of the kinds the rebuild must absorb: announcements
   that rank last (and so move no best route), updates from diversion
   targets, withdrawals of every candidate of a prefix, session flaps,
   churn on the prefix a [Default] rewrite resolves into, and the
   workload's own best-changing bursts.  Each is a list of bursts. *)
let random_bursts rng (w : Workload.t) ~rewrite_target =
  let server = Config.server w.config in
  let specs = Array.of_list w.specs in
  let asn i = specs.(i).Population.asn in
  let index_of a =
    let rec go i = if Sdx_bgp.Asn.equal (asn i) a then i else go (i + 1) in
    go 0
  in
  let announce ?(local_pref = 100) i prefix hops =
    Sdx_bgp.Update.announce
      (Sdx_bgp.Route.make ~prefix
         ~next_hop:(Workload.participant_port_ip i 0)
         ~as_path:(asn i :: List.init hops (fun k -> Sdx_bgp.Asn.of_int (64_600 + k)))
         ~local_pref ~learned_from:(asn i) ())
  in
  let vias =
    List.sort_uniq compare
      (List.concat_map
         (fun (p : Participant.t) ->
           List.filter_map
             (fun (c : Ppolicy.clause) ->
               match c.target with
               | Ppolicy.Peer v -> Some v
               | _ -> None)
             p.outbound)
         (Config.participants w.config))
  in
  let any_prefix () = Rng.pick rng w.universe in
  match Rng.int rng 6 with
  | 0 ->
      (* A last-ranked extra candidate. *)
      [ [ announce ~local_pref:10 (Rng.int rng (Array.length specs)) (any_prefix ()) 6 ] ]
  | 1 -> (
      match vias with
      | [] -> []
      | _ ->
          let i = index_of (Rng.pick rng vias) in
          let prefix = any_prefix () in
          if Rng.bool rng ~p:0.5 then [ [ announce i prefix (Rng.int rng 3) ] ]
          else [ [ Sdx_bgp.Update.withdraw ~peer:(asn i) prefix ] ])
  | 2 ->
      let prefix = any_prefix () in
      [
        List.map
          (fun (r : Sdx_bgp.Route.t) ->
            Sdx_bgp.Update.withdraw ~peer:r.learned_from prefix)
          (Sdx_bgp.Route_server.candidates server prefix);
      ]
  | 3 -> (
      let peer = asn (Rng.int rng (Array.length specs)) in
      let routes =
        List.filter_map
          (fun p ->
            Option.map Sdx_bgp.Update.announce
              (Sdx_bgp.Route_server.route_from server ~via:peer p))
          (List.filteri (fun k _ -> k < 12) (Sdx_bgp.Route_server.prefixes_of server peer))
      in
      match routes with
      | [] -> []
      | _ ->
          [
            List.map (fun u -> Sdx_bgp.Update.withdraw ~peer (Sdx_bgp.Update.prefix u)) routes;
            routes;
          ])
  | 4 ->
      let i = Rng.int rng (Array.length specs) in
      if Rng.bool rng ~p:0.5 then [ [ announce i rewrite_target (Rng.int rng 3) ] ]
      else [ [ Sdx_bgp.Update.withdraw ~peer:(asn i) rewrite_target ] ]
  | _ -> [ Workload.burst rng w ~size:(1 + Rng.int rng 4) ]

let prop_rebuild_matches_fresh_compile =
  QCheck.Test.make ~count:15
    ~name:"re-optimization equals a fresh compile up to renaming"
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let w, rewrite_target = rewrite_exchange rng in
      let runtime = Runtime.create w.config in
      for step = 1 to 40 do
        List.iter
          (fun burst -> ignore (Runtime.handle_burst runtime burst))
          (random_bursts rng w ~rewrite_target);
        if Rng.int rng 4 = 0 || step = 40 then begin
          ignore (Runtime.reoptimize runtime);
          match rebuild_mismatch runtime with
          | None -> ()
          | Some why ->
              QCheck.Test.fail_reportf "seed %d, step %d: %s" seed step why
        end
      done;
      true)

(* A class no burst touched keeps its identity across a
   re-optimization: same VNH, same VMAC, same ARP answer. *)
let test_untouched_class_keeps_vnh () =
  let runtime = Fig1.make_runtime () in
  let group_of p =
    Option.get (Compile.group_of_prefix (Runtime.compiled runtime) p)
  in
  let g3 = group_of Fig1.p3 in
  ignore (Runtime.withdraw runtime ~peer:Fig1.asn_c Fig1.p1);
  ignore (Runtime.announce runtime ~peer:Fig1.asn_d ~port:0 Fig1.p4);
  ignore (Runtime.reoptimize runtime);
  let g3' = group_of Fig1.p3 in
  check_bool "same VNH" true (Ipv4.equal g3.Compile.vnh g3'.Compile.vnh);
  check_bool "same VMAC" true (Mac.equal g3.Compile.vmac g3'.Compile.vmac);
  check_bool "ARP still answers with the VMAC" true
    (Responder.query (Runtime.arp runtime) g3.Compile.vnh = Some g3.Compile.vmac);
  check_bool "and the state equals a fresh compile" true
    (rebuild_mismatch runtime = None)

let () =
  Alcotest.run "churn"
    [
      ( "vnh",
        [
          Alcotest.test_case "alloc/release/reuse" `Quick
            test_vnh_alloc_release_reuse;
          Alcotest.test_case "release guards" `Quick test_vnh_release_guards;
          Alcotest.test_case "typed exhaustion" `Quick
            test_vnh_typed_exhaustion;
        ] );
      ( "arp",
        [
          Alcotest.test_case "responder diff" `Quick test_responder_diff;
          Alcotest.test_case "check pass catches drift" `Quick
            test_arp_pass_catches_drift;
        ] );
      ( "burst",
        [
          Alcotest.test_case "exhausted pool falls forward" `Quick
            test_burst_survives_exhausted_pool;
        ] );
      ( "grouping",
        [
          Alcotest.test_case "single-prefix rebind migrates without rules"
            `Quick test_migration_rebind_without_rules;
          Alcotest.test_case "withdrawal retires and compaction caps tombstones"
            `Quick test_withdraw_storm_retires_and_compacts;
          Alcotest.test_case "secondary-originator classes stay distinct"
            `Quick test_secondary_originator_classes_stay_distinct;
          QCheck_alcotest.to_alcotest prop_interned_matches_naive;
        ] );
      ( "rebuild",
        [
          Alcotest.test_case "an untouched class keeps its VNH" `Quick
            test_untouched_class_keeps_vnh;
          QCheck_alcotest.to_alcotest prop_rebuild_matches_fresh_compile;
        ] );
      ( "soak",
        [
          Alcotest.test_case "lifecycle is exercised" `Slow
            test_soak_exercises_lifecycle;
          QCheck_alcotest.to_alcotest prop_soak_survives;
        ] );
    ]
