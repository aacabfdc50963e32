(* Agreement between two routes to one result: (a) two cold
   [Compile.compile]s of one workload produce identical rule lists,
   (b) burst-batched fast-path deltas agree with a full [reoptimize],
   plus the same-prefix-burst regression. *)

open Sdx_net
open Sdx_policy
open Sdx_bgp
open Sdx_core
open Sdx_ixp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* (a) Compile determinism.                                            *)

(* Two cold compiles of one config, each drawing VNHs from a fresh
   pool, agree rule for rule, group for group and block for block:
   extraction depends only on diagram structure, never on what the
   manager built before. *)
let test_compile_deterministic () =
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      let w = Workload.build rng ~participants:20 ~prefixes:200 () in
      let compile () = Compile.compile w.Workload.config (Vnh.create ()) in
      let a = compile () and b = compile () in
      let groups t =
        List.map
          (fun (g : Compile.group) -> (g.id, g.vnh, g.prefixes, g.default_variants))
          (Compile.groups t)
      in
      check_int
        (Printf.sprintf "seed %d: same rule count" seed)
        (Classifier.rule_count (Compile.classifier a))
        (Classifier.rule_count (Compile.classifier b));
      check_bool
        (Printf.sprintf "seed %d: rule-for-rule identical" seed)
        true
        (Compile.classifier a = Compile.classifier b);
      check_bool
        (Printf.sprintf "seed %d: same groups" seed)
        true
        (groups a = groups b);
      check_bool
        (Printf.sprintf "seed %d: same provenance" seed)
        true
        (Compile.provenance a = Compile.provenance b))
    [ 1; 7; 42 ]

(* ------------------------------------------------------------------ *)
(* (b) Burst batching vs full reoptimize.                              *)

(* Where the runtime delivers a flow, resolved the way a border router
   would: best route for the destination, VNH from the re-advertised
   announcement, tag from ARP, then the classifier.  Returns the tagged
   packet and the sorted (participant, port) delivery set. *)
let delivery runtime ~sender ~dst_ip ~dst_port =
  let config = Runtime.config runtime in
  let server = Config.server config in
  match Route_server.lookup_best server ~receiver:sender dst_ip with
  | None -> None
  | Some (prefix, _) -> (
      match Runtime.announcement runtime ~receiver:sender prefix with
      | None -> None
      | Some route -> (
          match
            Sdx_arp.Responder.query (Runtime.arp runtime) route.Route.next_hop
          with
          | None -> None
          | Some tag ->
              let pkt =
                Packet.make
                  ~port:(Config.switch_port config sender 0)
                  ~dst_mac:tag
                  ~src_ip:(Ipv4.of_string "99.0.0.1")
                  ~dst_ip ~dst_port ()
              in
              Some (pkt, List.sort compare (Fig1.deliveries runtime pkt))))

let test_batch_matches_reoptimize () =
  let rng = Rng.create ~seed:11 in
  let w = Workload.build rng ~participants:15 ~prefixes:150 () in
  let runtime = Workload.runtime w in
  let burst = Workload.burst rng w ~size:6 in
  (* Re-deliver two of the updates so the burst has same-prefix
     duplicates for the coalescing path. *)
  let burst = burst @ [ List.nth burst 0; List.nth burst 2 ] in
  let stats = Runtime.handle_burst runtime burst in
  check_int "one fast-path block per burst" 1
    (Runtime.fast_path_block_count runtime);
  check_int "stats for every update" (List.length burst) (List.length stats);
  let installed =
    List.fold_left
      (fun n (s : Runtime.update_stats) -> n + s.extra_rules)
      0 stats
  in
  check_int "extra_rules sums to the installed block"
    (Runtime.extra_rule_count runtime)
    installed;
  let senders =
    List.filteri
      (fun i _ -> i < 3)
      (List.filter
         (fun (p : Participant.t) ->
           Config.switch_ports_of (Runtime.config runtime) p.asn <> [])
         (Config.participants (Runtime.config runtime)))
  in
  let dsts =
    List.sort_uniq Prefix.compare
      (List.map Update.prefix burst
      @ List.filteri (fun i _ -> i < 20) w.universe)
  in
  let probe () =
    List.concat_map
      (fun (s : Participant.t) ->
        List.concat_map
          (fun prefix ->
            List.map
              (fun dst_port ->
                delivery runtime ~sender:s.asn ~dst_ip:(Prefix.host prefix 9)
                  ~dst_port)
              [ 80; 9999 ])
          dsts)
      senders
  in
  let before = probe () in
  let fast_cls = Runtime.classifier runtime in
  ignore (Runtime.reoptimize runtime);
  let after = probe () in
  List.iteri
    (fun i (b, a) ->
      check_bool
        (Printf.sprintf "flow %d: fast path matches reoptimize" i)
        true
        (Option.map snd b = Option.map snd a))
    (List.combine before after);
  (* For flows whose tag survived re-optimization unchanged, the raw
     classifiers must agree pointwise too. *)
  let shared =
    List.concat_map
      (fun (b, a) ->
        match (b, a) with
        | Some (pb, _), Some (pa, _) when pb = pa -> [ pb ]
        | _ -> [])
      (List.combine before after)
  in
  check_bool "some packets survive with stable tags" true (shared <> []);
  check_bool "equivalent_on stable-tag packets" true
    (Classifier.equivalent_on fast_cls (Runtime.classifier runtime) shared)

(* The issue's regression: a 3-update burst on one prefix must install
   exactly one fast-path block reflecting the final route state. *)
let test_same_prefix_burst_single_block () =
  let runtime = Fig1.make_runtime () in
  let better pref =
    Update.announce
      (Route.make ~prefix:Fig1.p1
         ~next_hop:(Ipv4.of_string "172.0.0.5")
         ~as_path:[ Fig1.asn_d; Asn.of_int 65001 ]
         ~local_pref:pref ~learned_from:Fig1.asn_d ())
  in
  let updates =
    [ better 200; better 300; Update.withdraw ~peer:Fig1.asn_d Fig1.p1 ]
  in
  let stats = Runtime.handle_burst runtime updates in
  check_int "exactly one fast-path block" 1
    (Runtime.fast_path_block_count runtime);
  check_bool "every update changed a best route" true
    (List.for_all (fun (s : Runtime.update_stats) -> s.best_changed) stats);
  let flows runtime =
    List.map
      (fun dst_port ->
        match
          Fig1.fabric_packet runtime ~sender:Fig1.asn_a ~src_ip:"10.0.0.1"
            ~dst_ip:"20.0.1.9" ~dst_port ()
        with
        | None -> []
        | Some pkt -> List.sort compare (Fig1.deliveries runtime pkt))
      [ 80; 443; 9999 ]
  in
  let before = flows runtime in
  ignore (Runtime.reoptimize runtime);
  check_bool "burst result matches reoptimize on sampled packets" true
    (before = flows runtime);
  (* The withdrawal ended D's episode: default p1 traffic is back on C. *)
  check_bool "default flow delivered to C" true
    (List.mem [ (Fig1.asn_c, 0) ] before)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sdx_agreement"
    [
      ( "repeated compile",
        [
          Alcotest.test_case "cold compiles agree (workloads)" `Quick
            test_compile_deterministic;
        ] );
      ( "burst batching",
        [
          Alcotest.test_case "batch matches reoptimize" `Quick
            test_batch_matches_reoptimize;
          Alcotest.test_case "same-prefix burst installs one block" `Quick
            test_same_prefix_burst_single_block;
        ] );
    ]
