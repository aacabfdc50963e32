(* Tests for the Pyretic-style policy language and its classifier
   compiler.  The central property: for random policies and packets, the
   compiled classifier agrees exactly with the reference interpreter. *)

open Sdx_net
open Sdx_policy

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Small-domain generators so random predicates actually hit packets.  *)

let addr x = Ipv4.of_int (0x0A000000 lor (x land 7))
let small_mac x = Mac.of_int (x land 3)

let gen_small_prefix =
  QCheck2.Gen.(
    map2 (fun x len -> Prefix.make (addr x) len) (int_range 0 7) (int_range 29 32))

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
    sized_size (int_range 0 4)
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

(* ------------------------------------------------------------------ *)
(* Mods                                                                *)

let test_mods_identity () =
  let pkt = Packet.make ~dst_port:80 () in
  check_bool "identity" true (Packet.equal pkt (Mods.apply Mods.identity pkt));
  check_bool "is_identity" true (Mods.is_identity Mods.identity);
  check_bool "not identity" false (Mods.is_identity (Mods.make ~port:1 ()))

let test_mods_apply () =
  let pkt = Packet.make ~dst_port:80 ~port:1 () in
  let m = Mods.make ~port:2 ~dst_port:443 () in
  let pkt' = Mods.apply m pkt in
  check_int "port" 2 pkt'.port;
  check_int "dst_port" 443 pkt'.dst_port;
  check_int "src_port untouched" 0 pkt'.src_port

let prop_mods_then_law =
  QCheck2.Test.make ~name:"then_ a b = apply b after apply a" ~count:1000
    QCheck2.Gen.(triple gen_mods gen_mods gen_packet)
    (fun (a, b, pkt) ->
      Packet.equal
        (Mods.apply (Mods.then_ a b) pkt)
        (Mods.apply b (Mods.apply a pkt)))

(* ------------------------------------------------------------------ *)
(* Pattern                                                             *)

let test_pattern_all () =
  check_bool "all matches" true (Pattern.matches Pattern.all (Packet.make ()));
  check_bool "is_all" true (Pattern.is_all Pattern.all);
  check_int "field_count" 0 (Pattern.field_count Pattern.all)

let prop_pattern_inter =
  QCheck2.Test.make ~name:"pattern inter = conjunction of matches" ~count:2000
    QCheck2.Gen.(triple gen_pattern gen_pattern gen_packet)
    (fun (a, b, pkt) ->
      let both = Pattern.matches a pkt && Pattern.matches b pkt in
      match Pattern.inter a b with
      | Some i -> Pattern.matches i pkt = both
      | None -> not both)

let prop_pattern_subset =
  QCheck2.Test.make ~name:"pattern subset implies match subset" ~count:2000
    QCheck2.Gen.(triple gen_pattern gen_pattern gen_packet)
    (fun (a, b, pkt) ->
      (not (Pattern.subset a b))
      || (not (Pattern.matches a pkt))
      || Pattern.matches b pkt)

let prop_pattern_pull_back =
  QCheck2.Test.make ~name:"pull_back m p matches iff p matches after m"
    ~count:2000
    QCheck2.Gen.(triple gen_mods gen_pattern gen_packet)
    (fun (m, pat, pkt) ->
      let after = Pattern.matches pat (Mods.apply m pkt) in
      match Pattern.pull_back m pat with
      | Some pat' -> Pattern.matches pat' pkt = after
      | None -> not after)

(* ------------------------------------------------------------------ *)
(* Pred                                                                *)

let test_pred_constructors () =
  let pkt = Packet.make ~dst_port:80 ~port:2 () in
  check_bool "dst_port" true (Pred.eval (Pred.dst_port 80) pkt);
  check_bool "port" false (Pred.eval (Pred.port 1) pkt);
  check_bool "conj" true
    (Pred.eval (Pred.conj [ Pred.dst_port 80; Pred.port 2 ]) pkt);
  check_bool "disj empty is false" false (Pred.eval (Pred.disj []) pkt);
  check_bool "any_of_ports" true (Pred.eval (Pred.any_of_ports [ 1; 2 ]) pkt)

let prop_smart_and =
  QCheck2.Test.make ~name:"and_ preserves semantics" ~count:2000
    QCheck2.Gen.(triple gen_pred gen_pred gen_packet)
    (fun (a, b, pkt) ->
      Pred.eval (Pred.and_ a b) pkt = (Pred.eval a pkt && Pred.eval b pkt))

let prop_smart_or =
  QCheck2.Test.make ~name:"or_ preserves semantics" ~count:2000
    QCheck2.Gen.(triple gen_pred gen_pred gen_packet)
    (fun (a, b, pkt) ->
      Pred.eval (Pred.or_ a b) pkt = (Pred.eval a pkt || Pred.eval b pkt))

let prop_smart_not =
  QCheck2.Test.make ~name:"not_ preserves semantics" ~count:2000
    QCheck2.Gen.(pair gen_pred gen_packet)
    (fun (a, pkt) -> Pred.eval (Pred.not_ a) pkt = not (Pred.eval a pkt))

(* ------------------------------------------------------------------ *)
(* Policy interpreter                                                  *)

let test_policy_basics () =
  let pkt = Packet.make ~dst_port:80 () in
  check_bool "id" true (Policy.eval Policy.id pkt = [ pkt ]);
  check_bool "drop" true (Policy.eval Policy.drop pkt = []);
  check_bool "fwd" true (Policy.eval (Policy.fwd 3) pkt = [ { pkt with port = 3 } ]);
  check_bool "union dedupes" true
    (List.length (Policy.eval Policy.(Union (id, id)) pkt) = 1)

let test_policy_if () =
  let pkt80 = Packet.make ~dst_port:80 () in
  let pkt443 = Packet.make ~dst_port:443 () in
  let pol = Policy.if_ (Pred.dst_port 80) (Policy.fwd 1) (Policy.fwd 2) in
  check_bool "then" true (Policy.eval pol pkt80 = [ { pkt80 with port = 1 } ]);
  check_bool "else" true (Policy.eval pol pkt443 = [ { pkt443 with port = 2 } ])

let test_policy_seq () =
  let pkt = Packet.make () in
  let pol = Policy.(seq [ modify (Mods.make ~dst_port:80 ()); fwd 2 ]) in
  check_bool "seq" true
    (Policy.eval pol pkt = [ { pkt with dst_port = 80; port = 2 } ])

(* ------------------------------------------------------------------ *)
(* Classifier: the compile-correctness property                        *)

let prop_compile_correct =
  QCheck2.Test.make ~name:"compiled classifier = interpreter" ~count:4000
    QCheck2.Gen.(pair gen_policy gen_packet)
    (fun (pol, pkt) ->
      Classifier.eval (Classifier.compile pol) pkt = Policy.eval pol pkt)

let prop_compile_total =
  QCheck2.Test.make ~name:"compiled classifier is total" ~count:1000
    QCheck2.Gen.(pair gen_policy gen_packet)
    (fun (pol, pkt) ->
      Option.is_some (Classifier.first_match (Classifier.compile pol) pkt))

let prop_compile_pred_filter =
  QCheck2.Test.make ~name:"compile_pred acts as a filter" ~count:2000
    QCheck2.Gen.(pair gen_pred gen_packet)
    (fun (pred, pkt) ->
      let out = Classifier.eval (Classifier.compile_pred pred) pkt in
      if Pred.eval pred pkt then out = [ pkt ] else out = [])

let prop_par_semantics =
  QCheck2.Test.make ~name:"par = union of actions" ~count:2000
    QCheck2.Gen.(triple gen_policy gen_policy gen_packet)
    (fun (p, q, pkt) ->
      let c = Classifier.par (Classifier.compile p) (Classifier.compile q) in
      Classifier.eval c pkt = Policy.eval (Policy.Union (p, q)) pkt)

let prop_seq_semantics =
  QCheck2.Test.make ~name:"seq = composition of classifiers" ~count:2000
    QCheck2.Gen.(triple gen_policy gen_policy gen_packet)
    (fun (p, q, pkt) ->
      let c = Classifier.seq (Classifier.compile p) (Classifier.compile q) in
      Classifier.eval c pkt = Policy.eval (Policy.Seq (p, q)) pkt)

let prop_restrict_semantics =
  QCheck2.Test.make ~name:"restrict confines a classifier" ~count:2000
    QCheck2.Gen.(triple gen_pattern gen_policy gen_packet)
    (fun (pat, pol, pkt) ->
      let c = Classifier.restrict pat (Classifier.compile pol) in
      let expected = if Pattern.matches pat pkt then Policy.eval pol pkt else [] in
      Classifier.eval c pkt = expected)

let test_classifier_paper_example () =
  (* The composed policy of §3.1: A's outbound over B's inbound. *)
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
  let composed = Classifier.seq (Classifier.compile pa) (Classifier.compile pb) in
  let run ~src ~dst_port =
    let pkt = Packet.make ~src_ip:(Ipv4.of_string src) ~dst_port () in
    List.map (fun (p : Packet.t) -> p.port) (Classifier.eval composed pkt)
  in
  check_bool "web low" true (run ~src:"10.0.0.1" ~dst_port:80 = [ 11 ]);
  check_bool "web high" true (run ~src:"192.0.0.1" ~dst_port:80 = [ 12 ]);
  check_bool "https low" true (run ~src:"10.0.0.1" ~dst_port:443 = [ 11 ]);
  check_bool "other dropped" true (run ~src:"10.0.0.1" ~dst_port:22 = [])

let test_multicast () =
  let pol = Policy.(Union (fwd 1, fwd 2)) in
  let out = Classifier.eval (Classifier.compile pol) (Packet.make ()) in
  check_int "two copies" 2 (List.length out)

(* ------------------------------------------------------------------ *)
(* Pretty-printers                                                     *)

let test_pretty_printers () =
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "wildcard pattern" true
    (Format.asprintf "%a" Pattern.pp Pattern.all = "*");
  check_bool "pattern fields" true
    (contains "dst_port=80"
       (Format.asprintf "%a" Pattern.pp (Pattern.make ~dst_port:80 ())));
  check_bool "identity mods" true
    (Format.asprintf "%a" Mods.pp Mods.identity = "id");
  check_bool "mods assignment" true
    (contains "port:=3" (Format.asprintf "%a" Mods.pp (Mods.make ~port:3 ())));
  check_bool "pred structure" true
    (contains "||"
       (Format.asprintf "%a" Pred.pp (Pred.Or (Pred.dst_port 80, Pred.dst_port 443))));
  check_bool "policy structure" true
    (contains ">>"
       (Format.asprintf "%a" Policy.pp
          Policy.(Seq (filter (Pred.dst_port 80), fwd 2))));
  let c = Classifier.compile (Policy.if_ (Pred.dst_port 80) (Policy.fwd 1) Policy.drop) in
  check_bool "classifier rules printed" true
    (contains "->" (Format.asprintf "%a" Classifier.pp c))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "sdx_policy"
    [
      ( "mods",
        [
          Alcotest.test_case "identity" `Quick test_mods_identity;
          Alcotest.test_case "apply" `Quick test_mods_apply;
        ]
        @ qsuite [ prop_mods_then_law ] );
      ( "pattern",
        [ Alcotest.test_case "all" `Quick test_pattern_all ]
        @ qsuite
            [ prop_pattern_inter; prop_pattern_subset; prop_pattern_pull_back ] );
      ( "pred",
        [ Alcotest.test_case "constructors" `Quick test_pred_constructors ]
        @ qsuite [ prop_smart_and; prop_smart_or; prop_smart_not ] );
      ( "policy",
        [
          Alcotest.test_case "basics" `Quick test_policy_basics;
          Alcotest.test_case "if_" `Quick test_policy_if;
          Alcotest.test_case "seq" `Quick test_policy_seq;
        ] );
      ("pp", [ Alcotest.test_case "pretty printers" `Quick test_pretty_printers ]);
      ( "classifier",
        [
          Alcotest.test_case "paper 3.1 composition" `Quick
            test_classifier_paper_example;
          Alcotest.test_case "multicast" `Quick test_multicast;
        ]
        @ qsuite
            [
              prop_compile_correct;
              prop_compile_total;
              prop_compile_pred_filter;
              prop_par_semantics;
              prop_seq_semantics;
              prop_restrict_semantics;
            ] );
    ]
