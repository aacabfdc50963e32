(* Property tests for the FDD intermediate representation.  The
   hash-consed diagram must agree packet-for-packet with the reference
   interpreter AND with the cross-product classifier oracle, extraction
   must yield a total classifier with identical first-match semantics,
   and the hash-consing invariants (no duplicate reachable nodes,
   monotone counters) must hold under composition. *)

open Sdx_net
open Sdx_policy

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Small-domain generators (same shape as test_policy's, with a wider
   prefix-length range so nested-prefix resolution in the diagram gets
   exercised).                                                         *)

let addr x = Ipv4.of_int (0x0A000000 lor (x land 7))
let small_mac x = Mac.of_int (x land 3)

let gen_small_prefix =
  QCheck2.Gen.(
    map2
      (fun x len -> Prefix.make (addr x) len)
      (int_range 0 7) (int_range 26 32))

let gen_pattern =
  let open QCheck2.Gen in
  let opt g = frequency [ (2, return None); (1, map Option.some g) ] in
  let* port = opt (int_range 0 3) in
  let* src_mac = opt (map small_mac (int_range 0 3)) in
  let* dst_mac = opt (map small_mac (int_range 0 3)) in
  let* src_ip = opt gen_small_prefix in
  let* dst_ip = opt gen_small_prefix in
  let* proto = opt (oneofl [ 6; 17 ]) in
  let* src_port = opt (oneofl [ 80; 443 ]) in
  let* dst_port = opt (oneofl [ 80; 443 ]) in
  return
    (Pattern.make ?port ?src_mac ?dst_mac ?src_ip ?dst_ip ?proto ?src_port
       ?dst_port ())

let gen_mods =
  let open QCheck2.Gen in
  let opt g = frequency [ (2, return None); (1, map Option.some g) ] in
  let* port = opt (int_range 0 3) in
  let* dst_mac = opt (map small_mac (int_range 0 3)) in
  let* src_ip = opt (map addr (int_range 0 7)) in
  let* dst_ip = opt (map addr (int_range 0 7)) in
  let* dst_port = opt (oneofl [ 80; 443 ]) in
  return (Mods.make ?port ?dst_mac ?src_ip ?dst_ip ?dst_port ())

let gen_packet =
  let open QCheck2.Gen in
  let* port = int_range 0 3 in
  let* src_mac = map small_mac (int_range 0 3) in
  let* dst_mac = map small_mac (int_range 0 3) in
  let* src_ip = map addr (int_range 0 7) in
  let* dst_ip = map addr (int_range 0 7) in
  let* proto = oneofl [ 6; 17 ] in
  let* src_port = oneofl [ 80; 443 ] in
  let* dst_port = oneofl [ 80; 443 ] in
  return
    (Packet.make ~port ~src_mac ~dst_mac ~src_ip ~dst_ip ~proto ~src_port
       ~dst_port ())

let gen_pred =
  QCheck2.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self n ->
           if n = 0 then
             frequency
               [
                 (4, map (fun p -> Pred.Test p) gen_pattern);
                 (1, return Pred.True);
                 (1, return Pred.False);
               ]
           else
             frequency
               [
                 (2, map (fun p -> Pred.Test p) gen_pattern);
                 (2, map2 (fun a b -> Pred.And (a, b)) (self (n / 2)) (self (n / 2)));
                 (2, map2 (fun a b -> Pred.Or (a, b)) (self (n / 2)) (self (n / 2)));
                 (1, map (fun a -> Pred.Not a) (self (n - 1)));
               ]))

let gen_policy =
  QCheck2.Gen.(
    sized_size (int_range 0 5)
    @@ fix (fun self n ->
           if n = 0 then
             frequency
               [
                 (2, map (fun p -> Policy.Filter p) gen_pred);
                 (2, map (fun m -> Policy.Mod m) gen_mods);
               ]
           else
             frequency
               [
                 (1, map (fun p -> Policy.Filter p) gen_pred);
                 (1, map (fun m -> Policy.Mod m) gen_mods);
                 ( 2,
                   map2 (fun a b -> Policy.Union (a, b)) (self (n / 2)) (self (n / 2))
                 );
                 (2, map2 (fun a b -> Policy.Seq (a, b)) (self (n / 2)) (self (n / 2)));
                 ( 1,
                   map3
                     (fun c a b -> Policy.If (c, a, b))
                     gen_pred (self (n / 2)) (self (n / 2)) );
               ]))

(* Apply an FDD's action set to a packet — the located-packet set the
   diagram denotes, in the interpreter's canonical order. *)
let fdd_out d pkt =
  List.sort_uniq Packet.compare
    (List.map (fun m -> Mods.apply m pkt) (Fdd.eval d pkt))

(* ------------------------------------------------------------------ *)
(* Semantics: diagram = interpreter = cross-product oracle              *)

let prop_fdd_eval_correct =
  QCheck2.Test.make ~name:"fdd eval = interpreter" ~count:4000
    QCheck2.Gen.(pair gen_policy gen_packet)
    (fun (pol, pkt) ->
      let mgr = Fdd.create () in
      fdd_out (Fdd.of_policy mgr pol) pkt = Policy.eval pol pkt)

let prop_fdd_classifier_oracle =
  QCheck2.Test.make
    ~name:"extracted classifier = cross-product oracle (per packet)"
    ~count:4000
    QCheck2.Gen.(pair gen_policy gen_packet)
    (fun (pol, pkt) ->
      let mgr = Fdd.create () in
      let cls = Fdd.to_classifier (Fdd.of_policy mgr pol) in
      Classifier.eval cls pkt = Classifier.eval (Classifier.compile pol) pkt)

let prop_fdd_classifier_total =
  QCheck2.Test.make ~name:"extracted classifier is total" ~count:1000
    QCheck2.Gen.(pair gen_policy gen_packet)
    (fun (pol, pkt) ->
      let mgr = Fdd.create () in
      let cls = Fdd.to_classifier (Fdd.of_policy mgr pol) in
      Option.is_some (Classifier.first_match cls pkt))

let prop_fdd_pred =
  QCheck2.Test.make ~name:"of_pred is the predicate's indicator" ~count:4000
    QCheck2.Gen.(pair gen_pred gen_packet)
    (fun (pred, pkt) ->
      let mgr = Fdd.create () in
      let acts = Fdd.eval (Fdd.of_pred mgr pred) pkt in
      if Pred.eval pred pkt then acts = [ Mods.identity ] else acts = [])

let prop_fdd_union =
  QCheck2.Test.make ~name:"fdd union = policy union" ~count:2000
    QCheck2.Gen.(triple gen_policy gen_policy gen_packet)
    (fun (p, q, pkt) ->
      let mgr = Fdd.create () in
      let d = Fdd.union mgr (Fdd.of_policy mgr p) (Fdd.of_policy mgr q) in
      fdd_out d pkt = Policy.eval (Policy.Union (p, q)) pkt)

let prop_fdd_seq =
  QCheck2.Test.make ~name:"fdd seq = policy seq" ~count:2000
    QCheck2.Gen.(triple gen_policy gen_policy gen_packet)
    (fun (p, q, pkt) ->
      let mgr = Fdd.create () in
      let d = Fdd.seq mgr (Fdd.of_policy mgr p) (Fdd.of_policy mgr q) in
      fdd_out d pkt = Policy.eval (Policy.Seq (p, q)) pkt)

let prop_fdd_ite =
  QCheck2.Test.make ~name:"fdd ite = policy if" ~count:2000
    QCheck2.Gen.(
      pair (pair gen_pred gen_packet) (pair gen_policy gen_policy))
    (fun ((c, pkt), (p, q)) ->
      let mgr = Fdd.create () in
      let d =
        Fdd.ite mgr (Fdd.of_pred mgr c) (Fdd.of_policy mgr p)
          (Fdd.of_policy mgr q)
      in
      fdd_out d pkt = Policy.eval (Policy.If (c, p, q)) pkt)

let prop_fdd_restrict =
  QCheck2.Test.make ~name:"fdd restrict confines the diagram" ~count:2000
    QCheck2.Gen.(triple gen_pattern gen_policy gen_packet)
    (fun (pat, pol, pkt) ->
      let mgr = Fdd.create () in
      let d = Fdd.restrict mgr pat (Fdd.of_policy mgr pol) in
      let expected =
        if Pattern.matches pat pkt then Policy.eval pol pkt else []
      in
      fdd_out d pkt = expected)

(* ------------------------------------------------------------------ *)
(* Hash-consing invariants                                             *)

let prop_fdd_unique =
  QCheck2.Test.make ~name:"no duplicate reachable nodes" ~count:2000
    QCheck2.Gen.(pair gen_policy gen_policy)
    (fun (p, q) ->
      let mgr = Fdd.create () in
      let d = Fdd.seq mgr (Fdd.of_policy mgr p) (Fdd.of_policy mgr q) in
      Fdd.check_unique d)

let prop_fdd_counters_monotone =
  QCheck2.Test.make ~name:"node/memo counters are monotone" ~count:1000
    QCheck2.Gen.(triple gen_policy gen_policy gen_policy)
    (fun (p, q, r) ->
      let mgr = Fdd.create () in
      let ok = ref true in
      let prev = ref (Fdd.stats mgr) in
      let step pol =
        ignore (Fdd.of_policy mgr pol);
        let s = Fdd.stats mgr in
        ok :=
          !ok
          && s.Fdd.nodes >= !prev.Fdd.nodes
          && s.Fdd.memo_hits >= !prev.Fdd.memo_hits;
        prev := s
      in
      List.iter step [ p; q; r; Policy.Union (p, q); Policy.Seq (q, r) ];
      !ok)

let prop_fdd_sharing =
  QCheck2.Test.make ~name:"rebuilding a policy reuses the same node"
    ~count:1000 gen_policy
    (fun pol ->
      let mgr = Fdd.create () in
      let d1 = Fdd.of_policy mgr pol in
      let before = (Fdd.stats mgr).Fdd.nodes in
      let d2 = Fdd.of_policy mgr pol in
      let after = (Fdd.stats mgr).Fdd.nodes in
      Fdd.size d1 = Fdd.size d2 && before = after)

let prop_fdd_extraction_deterministic =
  QCheck2.Test.make
    ~name:"extraction is manager-independent (rule-for-rule)" ~count:1000
    QCheck2.Gen.(pair gen_policy gen_policy)
    (fun (p, q) ->
      (* Same diagram built along different routes in different managers
         must extract the same classifier — what makes a recompile
         structurally reproducible whatever its managers built before. *)
      let m1 = Fdd.create () in
      let noise = Fdd.of_policy m1 q in
      ignore (Fdd.seq m1 noise noise);
      let c1 = Fdd.to_classifier (Fdd.of_policy m1 p) in
      let m2 = Fdd.create () in
      let c2 = Fdd.to_classifier (Fdd.of_policy m2 p) in
      List.length c1 = List.length c2
      && List.for_all2
           (fun (a : Classifier.rule) (b : Classifier.rule) ->
             Pattern.equal a.pattern b.pattern
             && List.equal Mods.equal a.action b.action)
           c1 c2)

(* ------------------------------------------------------------------ *)
(* Workload-level equivalence: the full compiler pipeline, FDD engine
   against the cross-product oracle, probed with packets aimed at the
   oracle's own rules (plus noise).                                    *)

let probe_packet rng (rules : Classifier.rule array) =
  let open Sdx_ixp in
  let rand_ip () =
    Ipv4.of_int ((Rng.int rng 0x8000 lsl 16) lor Rng.int rng 0x10000)
  in
  if Rng.bool rng ~p:0.3 || Array.length rules = 0 then
    Packet.make ~port:(Rng.int rng 32)
      ~dst_mac:(Mac.of_int (Rng.int rng 0xFFFFFF))
      ~src_ip:(rand_ip ()) ~dst_ip:(rand_ip ())
      ~dst_port:(Rng.pick rng [ 80; 443; 22 ])
      ()
  else
    let r = rules.(Rng.int rng (Array.length rules)) in
    let pat = r.Classifier.pattern in
    let inside p =
      let span = 1 lsl (32 - Prefix.length p) in
      Prefix.host p (Rng.int rng (min span 65536))
    in
    Packet.make
      ~port:(Option.value pat.Pattern.port ~default:(Rng.int rng 32))
      ~src_mac:
        (Option.value pat.src_mac ~default:(Mac.of_int (Rng.int rng 0xFFFFFF)))
      ~dst_mac:
        (Option.value pat.dst_mac ~default:(Mac.of_int (Rng.int rng 0xFFFFFF)))
      ~eth_type:(Option.value pat.eth_type ~default:Packet.ethertype_ipv4)
      ~src_ip:(match pat.src_ip with Some p -> inside p | None -> rand_ip ())
      ~dst_ip:(match pat.dst_ip with Some p -> inside p | None -> rand_ip ())
      ~proto:(Option.value pat.proto ~default:Packet.proto_tcp)
      ~src_port:(Option.value pat.src_port ~default:(Rng.int rng 65536))
      ~dst_port:
        (Option.value pat.dst_port ~default:(Rng.pick rng [ 80; 443; 22 ]))
      ()

let test_workload_equivalence () =
  let open Sdx_ixp in
  let rng = Rng.create ~seed:7 in
  let w =
    Workload.build rng ~participants:40 ~prefixes:300 ~transit_picks:2 ()
  in
  let fdd_t = Sdx_core.Compile.compile w.Workload.config (Sdx_core.Vnh.create ()) in
  let oracle = Sdx_oracle.Crossproduct.compose fdd_t w.Workload.config in
  let fdd_cls = Sdx_core.Compile.classifier fdd_t in
  let cp_cls = oracle.classifier in
  let rules = Array.of_list cp_cls in
  let mismatches = ref 0 in
  for _ = 1 to 3000 do
    let pkt = probe_packet rng rules in
    if Classifier.eval fdd_cls pkt <> Classifier.eval cp_cls pkt then
      incr mismatches
  done;
  Alcotest.(check int) "per-packet identical" 0 !mismatches;
  check_bool "same blocks in the same order" true
    (List.map fst oracle.provenance
    = List.map fst (Sdx_core.Compile.provenance fdd_t));
  let s = Sdx_core.Compile.stats fdd_t in
  check_bool "fdd nodes populated" true (s.Sdx_core.Compile.fdd_nodes > 0);
  check_bool "fdd memo hits populated" true (s.fdd_memo_hits > 0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let test_fdd_paper_example () =
  (* §3.1 composition through the FDD pipeline. *)
  let open Policy in
  let pa =
    if_ (Pred.dst_port 80) (fwd 10) (if_ (Pred.dst_port 443) (fwd 20) drop)
  in
  let pb =
    if_
      (Pred.src_ip (Prefix.of_string "0.0.0.0/1"))
      (fwd 11)
      (if_ (Pred.src_ip (Prefix.of_string "128.0.0.0/1")) (fwd 12) drop)
  in
  let mgr = Fdd.create () in
  let d = Fdd.seq mgr (Fdd.of_policy mgr pa) (Fdd.of_policy mgr pb) in
  let cls = Fdd.to_classifier d in
  let run ~src ~dst_port =
    let pkt = Packet.make ~src_ip:(Ipv4.of_string src) ~dst_port () in
    List.map (fun (p : Packet.t) -> p.port) (Classifier.eval cls pkt)
  in
  check_bool "web low" true (run ~src:"10.0.0.1" ~dst_port:80 = [ 11 ]);
  check_bool "web high" true (run ~src:"192.0.0.1" ~dst_port:80 = [ 12 ]);
  check_bool "https low" true (run ~src:"10.0.0.1" ~dst_port:443 = [ 11 ]);
  check_bool "other dropped" true (run ~src:"10.0.0.1" ~dst_port:22 = []);
  check_bool "unique" true (Fdd.check_unique d)

let () =
  Alcotest.run "sdx_fdd"
    [
      ( "semantics",
        [ Alcotest.test_case "paper 3.1 composition" `Quick test_fdd_paper_example ]
        @ qsuite
            [
              prop_fdd_eval_correct;
              prop_fdd_classifier_oracle;
              prop_fdd_classifier_total;
              prop_fdd_pred;
              prop_fdd_union;
              prop_fdd_seq;
              prop_fdd_ite;
              prop_fdd_restrict;
            ] );
      ( "hashcons",
        qsuite
          [
            prop_fdd_unique;
            prop_fdd_counters_monotone;
            prop_fdd_sharing;
            prop_fdd_extraction_deterministic;
          ] );
      ( "compiler",
        [
          Alcotest.test_case "workload: fdd = crossproduct oracle" `Quick
            test_workload_equivalence;
        ] );
    ]
