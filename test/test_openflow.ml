(* Tests for the OpenFlow switch model: flow entries, priority tables,
   and the control channel. *)

open Sdx_net
open Sdx_policy
module Sync = Sdx_sanitize.Sync
open Sdx_openflow

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let flow ?(priority = 100) ?(pattern = Pattern.all) actions =
  Flow.make ~priority ~pattern ~actions

let out port = Mods.make ~port ()

(* ------------------------------------------------------------------ *)
(* Flow                                                                *)

let test_flow_of_classifier () =
  let c =
    [
      { Classifier.pattern = Pattern.make ~dst_port:80 (); action = [ out 1 ] };
      { Classifier.pattern = Pattern.all; action = [] };
    ]
  in
  let flows = Flow.of_classifier c in
  check_int "two entries" 2 (List.length flows);
  let priorities = List.map (fun (f : Flow.t) -> f.priority) flows in
  check_bool "strictly descending" true (priorities = [ 65535; 65534 ]);
  check_bool "drop preserved" true (Flow.is_drop (List.nth flows 1));
  let low = Flow.of_classifier ~base_priority:10 c in
  check_bool "base priority respected" true
    (List.map (fun (f : Flow.t) -> f.priority) low = [ 10; 9 ])

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let test_table_priority_order () =
  let t = Table.create () in
  Table.install t (flow ~priority:10 [ out 1 ]);
  Table.install t (flow ~priority:20 ~pattern:(Pattern.make ~dst_port:80 ()) [ out 2 ]);
  (match Table.lookup t (Packet.make ~dst_port:80 ()) with
  | Some f -> check_int "high priority wins" 20 f.priority
  | None -> Alcotest.fail "no match");
  match Table.lookup t (Packet.make ~dst_port:22 ()) with
  | Some f -> check_int "fallback" 10 f.priority
  | None -> Alcotest.fail "no fallback match"

let test_table_add_overwrites () =
  (* OpenFlow ADD: equal priority and match replaces the entry. *)
  let t = Table.create () in
  Table.install t (flow ~priority:10 [ out 1 ]);
  Table.install t (flow ~priority:10 [ out 2 ]);
  check_int "one entry" 1 (Table.size t);
  match Table.lookup t (Packet.make ()) with
  | Some f -> check_bool "latest wins" true (f.actions = [ out 2 ])
  | None -> Alcotest.fail "no match"

let test_table_capacity () =
  let t = Table.create ~capacity:2 () in
  Table.install t (flow ~priority:1 [ out 1 ]);
  Table.install t (flow ~priority:2 [ out 2 ]);
  check_bool "full raises" true
    (try
       Table.install t (flow ~priority:3 [ out 3 ]);
       false
     with Table.Table_full -> true);
  (* Overwriting does not count against capacity. *)
  Table.install t (flow ~priority:2 [ out 9 ]);
  check_int "still two entries" 2 (Table.size t);
  check_int "capacity reported" 2 (Option.get (Table.capacity t))

let test_table_remove () =
  let t = Table.create () in
  let p80 = Pattern.make ~dst_port:80 () in
  Table.install t (flow ~priority:10 ~pattern:p80 [ out 1 ]);
  Table.install t (flow ~priority:20 [ out 2 ]);
  Table.remove t ~priority:10 ~pattern:p80;
  check_int "one left" 1 (Table.size t);
  let removed = Table.remove_where t (fun f -> f.priority = 20) in
  check_int "remove_where count" 1 removed;
  check_int "empty" 0 (Table.size t)

let test_table_hits () =
  let t = Table.create () in
  Table.install t (flow ~priority:10 [ out 1 ]);
  ignore (Table.lookup t (Packet.make ()));
  ignore (Table.lookup t (Packet.make ~dst_port:80 ()));
  check_int "hits counted" 2 (Table.hits t ~priority:10 ~pattern:Pattern.all);
  check_int "absent entry" 0 (Table.hits t ~priority:99 ~pattern:Pattern.all)

let test_table_clear () =
  let t = Table.create () in
  Table.install_all t [ flow [ out 1 ]; flow [ out 2 ] ];
  Table.clear t;
  check_int "cleared" 0 (Table.size t);
  check_bool "no match after clear" true (Table.lookup t (Packet.make ()) = None)

(* The engine partitions rules across its layers and merges
   priority-correctly between them. *)
let test_table_engine_layers () =
  let t = Table.create () in
  let vmac = Mac.of_int 0x020000000007 in
  let net = Prefix.of_string "10.1.0.0/16" in
  Table.install t (flow ~priority:30 ~pattern:(Pattern.make ~dst_mac:vmac ()) [ out 1 ]);
  Table.install t (flow ~priority:20 ~pattern:(Pattern.make ~dst_ip:net ()) [ out 2 ]);
  Table.install t
    (flow ~priority:10 ~pattern:(Pattern.make ~src_ip:(Prefix.of_string "10.2.0.0/16") ())
       [ out 3 ]);
  Table.install t (flow ~priority:1 [ out 9 ]);
  let s = Table.engine_stats t in
  check_int "dst_mac layer" 1 s.Table.mac_entries;
  check_int "no exact-layer entry" 0 s.Table.exact_entries;
  check_int "prefix layer (dst + src tries)" 2 s.Table.prefix_entries;
  check_int "residual layer (catch-all)" 1 s.Table.residual_entries;
  check_int "no exact shape" 0 s.Table.exact_shapes;
  (* A packet matching both the dst_mac and the prefix rule: the MAC
     one wins on priority, not on layer order. *)
  let pkt = Packet.make ~dst_mac:vmac ~dst_ip:(Ipv4.of_string "10.1.2.3") () in
  (match Table.lookup t pkt with
  | Some f -> check_int "priority merge across layers" 30 f.priority
  | None -> Alcotest.fail "no match");
  (* Same packet, MAC rule removed: the prefix band serves it. *)
  Table.remove t ~priority:30 ~pattern:(Pattern.make ~dst_mac:vmac ());
  (match Table.lookup t pkt with
  | Some f -> check_int "prefix band fallback" 20 f.priority
  | None -> Alcotest.fail "no prefix match");
  (* The src-trie side of the prefix band. *)
  (match Table.lookup t (Packet.make ~src_ip:(Ipv4.of_string "10.2.9.9") ()) with
  | Some f -> check_int "src-trie match" 10 f.priority
  | None -> Alcotest.fail "no src-trie match");
  (* And the residual catch-all takes what no index covers. *)
  match Table.lookup t (Packet.make ~src_ip:(Ipv4.of_string "172.16.0.1") ()) with
  | Some f -> check_int "residual catch-all" 1 f.priority
  | None -> Alcotest.fail "no residual match"

(* One MAC's bucket next to a higher-priority rule in another layer:
   the priority decides across layers on every lookup path, before and
   after a bulk rebuild, and the bucket goes with the MAC's last rule. *)
let test_table_mac_layer () =
  let t = Table.create () in
  let vmac = Mac.of_int 0x020000000009 in
  let net = Prefix.of_string "10.1.0.0/16" in
  let both = Pattern.make ~dst_mac:vmac ~dst_ip:net () in
  let mac_only = Pattern.make ~dst_mac:vmac () in
  Table.install t (flow ~priority:20 ~pattern:both [ out 1 ]);
  Table.install t (flow ~priority:30 ~pattern:(Pattern.make ~dst_ip:net ()) [ out 2 ]);
  Table.install t (flow ~priority:10 ~pattern:mac_only [ out 3 ]);
  let s = Table.engine_stats t in
  check_int "both MAC rules in the MAC layer" 2 s.Table.mac_entries;
  check_int "one MAC" 1 s.Table.mac_keys;
  check_int "one bucket of two" 2 s.Table.mac_largest_bucket;
  check_int "the dst_ip rule in the prefix band" 1 s.Table.prefix_entries;
  let inside = Packet.make ~dst_mac:vmac ~dst_ip:(Ipv4.of_string "10.1.2.3") () in
  let outside = Packet.make ~dst_mac:vmac ~dst_ip:(Ipv4.of_string "10.9.9.9") () in
  let winner what expect =
    let prio = Option.map (fun (f : Flow.t) -> f.priority) in
    let snap = Table.snapshot t in
    let find = Table.searcher snap in
    List.iter
      (fun (pkt, want) ->
        check_bool (what ^ ": lookup") true (prio (Table.lookup t pkt) = want);
        check_bool (what ^ ": searcher") true (prio (find pkt) = want);
        check_bool (what ^ ": snapshot_linear") true
          (prio (Table.snapshot_linear snap pkt) = want))
      expect
  in
  winner "installed one by one" [ (inside, Some 30); (outside, Some 10) ];
  (* A batch past the staleness budget takes the rebuild path. *)
  let rebuilds = (Table.engine_stats t).Table.rebuilds in
  let others =
    List.init 200 (fun i ->
        Table.Install
          (flow ~priority:(i mod 40)
             ~pattern:(Pattern.make ~dst_mac:(Mac.of_int (0x020000001000 + i)) ())
             [ out 4 ]))
  in
  Table.apply t others;
  check_bool "bulk apply rebuilt the engine" true
    ((Table.engine_stats t).Table.rebuilds > rebuilds);
  winner "after a bulk apply" [ (inside, Some 30); (outside, Some 10) ];
  check_int "201 MACs" 201 (Table.engine_stats t).Table.mac_keys;
  Table.remove t ~priority:20 ~pattern:both;
  check_int "bucket kept while the MAC has a rule" 201
    (Table.engine_stats t).Table.mac_keys;
  Table.remove t ~priority:10 ~pattern:mac_only;
  let s = Table.engine_stats t in
  check_int "the MAC's last rule drops its bucket" 200 s.Table.mac_keys;
  check_int "MAC layer entries" 200 s.Table.mac_entries;
  winner "MAC rules gone" [ (inside, Some 30); (outside, None) ]

(* The hot loop allocates nothing: a searcher hit or miss returns a
   preallocated option, and [lookup] allocates only for its 1-in-64
   latency sample.  Under the race detector every counter bump records
   clocks, so [lookup] is only held to this with the detector off. *)
let test_table_lookup_allocation () =
  let t = Table.create () in
  let mac i = Mac.of_int (0x020000000000 + i) in
  List.iteri
    (fun i pattern -> Table.install t (flow ~priority:(10 + i) ~pattern [ out (i mod 4) ]))
    [
      Pattern.make ~dst_mac:(mac 1) ();
      Pattern.make ~dst_mac:(mac 2) ~dst_ip:(Prefix.of_string "10.0.0.0/8") ();
      Pattern.make ~dst_port:80 ~proto:6 ();
      Pattern.make ~dst_ip:(Prefix.of_string "10.1.0.0/16") ();
      Pattern.make ~src_ip:(Prefix.of_string "192.168.0.0/16") ();
    ];
  let pkts =
    Array.init 64 (fun i ->
        Packet.make ~dst_mac:(mac (i mod 4))
          ~dst_ip:(Ipv4.of_int (0x0A000000 lor (i lsl 14)))
          ~src_ip:(Ipv4.of_string (if i mod 5 = 0 then "192.168.1.1" else "172.16.0.1"))
          ~dst_port:(if i mod 3 = 0 then 80 else 22)
          ())
  in
  let find = Table.searcher (Table.snapshot t) in
  let hits = Array.fold_left (fun n p -> if find p = None then n else n + 1) 0 pkts in
  check_bool "hits and misses both" true (hits > 0 && hits < Array.length pkts);
  let calls = 10_000 in
  let words f =
    let w0 = Gc.minor_words () in
    for i = 0 to calls - 1 do
      ignore (f pkts.(i land 63))
    done;
    Gc.minor_words () -. w0
  in
  let w = words find in
  check_bool (Printf.sprintf "searcher: %.0f words over %d lookups" w calls) true (w < 10.0);
  if Sync.mode () = Sync.Off then begin
    let w = words (Table.lookup t) in
    check_bool
      (Printf.sprintf "lookup: %.3f words per call" (w /. float_of_int calls))
      true
      (w /. float_of_int calls < 0.25)
  end

let test_table_engine_rebuilds () =
  let t = Table.create () in
  (* Enough single-rule churn to blow the staleness budget repeatedly. *)
  for i = 0 to 999 do
    let pat = Pattern.make ~dst_port:(1000 + (i mod 50)) () in
    Table.install t (flow ~priority:(i mod 7) ~pattern:pat [ out 1 ]);
    if i mod 3 = 0 then Table.remove t ~priority:(i mod 7) ~pattern:pat
  done;
  let s = Table.engine_stats t in
  check_bool "staleness rebuilds happened" true (s.Table.rebuilds > 0);
  check_int "partition covers the table" (Table.size t)
    (s.Table.exact_entries + s.Table.prefix_entries + s.Table.residual_entries)

let test_table_install_all_batch () =
  (* install_all (one sort-and-build) must agree with per-flow install. *)
  let flows =
    List.init 200 (fun i ->
        flow ~priority:(i mod 11)
          ~pattern:(Pattern.make ~dst_port:(i mod 23) ~proto:(if i mod 2 = 0 then 6 else 17) ())
          [ out (i mod 4) ])
  in
  let batch = Table.create () in
  Table.install_all batch flows;
  let one_by_one = Table.create () in
  List.iter (Table.install one_by_one) flows;
  check_bool "same entries, same order" true
    (Table.entries batch = Table.entries one_by_one);
  check_int "overwrites collapsed" (Table.size one_by_one) (Table.size batch)

let test_table_overwrite_resets_counter () =
  let t = Table.create () in
  Table.install t (flow ~priority:10 [ out 1 ]);
  ignore (Table.lookup t (Packet.make ()));
  check_int "counted" 1 (Table.hits t ~priority:10 ~pattern:Pattern.all);
  Table.install t (flow ~priority:10 [ out 2 ]);
  check_int "reset on overwrite" 0 (Table.hits t ~priority:10 ~pattern:Pattern.all)

(* ------------------------------------------------------------------ *)
(* Engine vs. linear-scan oracle (qcheck)                              *)

(* A literal reimplementation of the pre-engine table: a sorted list
   with first-match lookup and in-place counters.  The engine must be
   observationally identical under any install/remove/lookup
   interleaving, including OpenFlow's overwrite-on-ADD. *)
module Model = struct
  (* sdx-owner: the oracle is driven single-threaded by the qcheck
     property; nothing here crosses a domain. *)
  type entry = { flow : Flow.t; seq : int; mutable packets : int }
  type t = { mutable entries : entry list; mutable next_seq : int }

  let create () = { entries = []; next_seq = 0 }

  let order a b =
    match Int.compare b.flow.Flow.priority a.flow.Flow.priority with
    | 0 -> Int.compare a.seq b.seq
    | c -> c

  let drop t ~priority ~pattern =
    t.entries <-
      List.filter
        (fun e ->
          not
            (e.flow.Flow.priority = priority
            && Pattern.equal e.flow.Flow.pattern pattern))
        t.entries

  let install t (flow : Flow.t) =
    drop t ~priority:flow.priority ~pattern:flow.pattern;
    let e = { flow; seq = t.next_seq; packets = 0 } in
    t.next_seq <- t.next_seq + 1;
    t.entries <- List.merge order [ e ] t.entries

  let lookup t pkt =
    let rec go = function
      | [] -> None
      | e :: rest ->
          if Pattern.matches e.flow.Flow.pattern pkt then begin
            e.packets <- e.packets + 1;
            Some e.flow
          end
          else go rest
    in
    go t.entries

  let hits t ~priority ~pattern =
    match
      List.find_opt
        (fun e ->
          e.flow.Flow.priority = priority && Pattern.equal e.flow.Flow.pattern pattern)
        t.entries
    with
    | Some e -> e.packets
    | None -> 0

  let flows t = List.map (fun e -> e.flow) t.entries
end

(* Small value pools so that installs collide (overwrites), removes hit
   live entries, and packets actually match rules. *)
let pool_mac = List.map (fun i -> Mac.of_int (0x020000000000 + i)) [ 1; 2; 3 ]
let pool_ip = List.map Ipv4.of_string [ "10.0.0.1"; "10.0.1.9"; "10.1.2.3"; "192.168.0.5" ]

let pool_prefix =
  List.map Prefix.of_string
    [ "10.0.0.0/8"; "10.0.0.0/16"; "10.0.1.0/24"; "10.1.2.3/32"; "192.168.0.0/16" ]

let gen_engine_pattern =
  let open QCheck2.Gen in
  let opt g = option ~ratio:0.4 g in
  let* port = opt (int_range 0 3) in
  let* dst_mac = opt (oneofl pool_mac) in
  let* eth_type = opt (oneofl [ 0x0800; 0x0806 ]) in
  let* proto = opt (oneofl [ 6; 17 ]) in
  let* dst_port = opt (oneofl [ 80; 443 ]) in
  let* src_ip = option ~ratio:0.2 (oneofl pool_prefix) in
  let* dst_ip = option ~ratio:0.5 (oneofl pool_prefix) in
  return
    (Pattern.make ?port ?dst_mac ?eth_type ?proto ?dst_port ?src_ip ?dst_ip ())

let gen_engine_packet =
  let open QCheck2.Gen in
  let* port = int_range 0 3 in
  let* dst_mac = oneofl (Mac.zero :: pool_mac) in
  let* eth_type = oneofl [ 0x0800; 0x0806 ] in
  let* proto = oneofl [ 6; 17 ] in
  let* dst_port = oneofl [ 80; 443; 22 ] in
  let* src_ip = oneofl pool_ip in
  let* dst_ip = oneofl pool_ip in
  return (Packet.make ~port ~dst_mac ~eth_type ~proto ~dst_port ~src_ip ~dst_ip ())

type table_op =
  | Op_install of Flow.t
  | Op_remove of int * Pattern.t
  | Op_lookup of Packet.t

let gen_op =
  let open QCheck2.Gen in
  frequency
    [
      ( 4,
        let* priority = int_range 0 4 in
        let* pattern = gen_engine_pattern in
        let* p = int_range 0 3 in
        return (Op_install (Flow.make ~priority ~pattern ~actions:[ out p ])) );
      ( 1,
        let* priority = int_range 0 4 in
        let* pattern = gen_engine_pattern in
        return (Op_remove (priority, pattern)) );
      (5, map (fun pkt -> Op_lookup pkt) gen_engine_packet);
    ]

let prop_engine_equals_linear_oracle =
  QCheck2.Test.make ~name:"engine lookup/counters = linear-scan oracle" ~count:300
    QCheck2.Gen.(list_size (int_range 20 120) gen_op)
    (fun ops ->
      let tbl = Table.create () in
      let model = Model.create () in
      let keys = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Op_install f ->
              keys := (f.Flow.priority, f.Flow.pattern) :: !keys;
              Table.install tbl f;
              Model.install model f;
              true
          | Op_remove (priority, pattern) ->
              Table.remove tbl ~priority ~pattern;
              Model.drop model ~priority ~pattern;
              true
          | Op_lookup pkt ->
              (* The pure linear reference, the engine, and the model
                 must elect the same entry... *)
              let linear = Table.lookup_linear tbl pkt in
              let engine = Table.lookup tbl pkt in
              let reference = Model.lookup model pkt in
              engine = linear && engine = reference)
        ops
      (* ... and after the run, table contents and every per-entry
         packet counter must agree too. *)
      && Table.entries tbl = Model.flows model
      && Table.size tbl = List.length (Model.flows model)
      && List.for_all
           (fun (priority, pattern) ->
             Table.hits tbl ~priority ~pattern = Model.hits model ~priority ~pattern)
           !keys)

let gen_engine_flow =
  QCheck2.Gen.(
    map2
      (fun (priority, pattern) p -> Flow.make ~priority ~pattern ~actions:[ out p ])
      (pair (int_range 0 4) gen_engine_pattern)
      (int_range 0 3))

let prop_install_all_equals_sequential =
  QCheck2.Test.make ~name:"install_all batch = sequential installs" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 60) gen_engine_flow)
        (list_size (int_range 1 20) gen_engine_packet))
    (fun (flows, pkts) ->
      let batch = Table.create () in
      Table.install_all batch flows;
      let seq = Table.create () in
      List.iter (Table.install seq) flows;
      Table.entries batch = Table.entries seq
      && List.for_all (fun pkt -> Table.lookup batch pkt = Table.lookup seq pkt) pkts)

let prop_snapshot_of_flows_equals_install_all =
  QCheck2.Test.make ~name:"snapshot_of_flows = install_all then snapshot"
    ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 60) gen_engine_flow)
        (list_size (int_range 1 20) gen_engine_packet))
    (fun (flows, pkts) ->
      let t = Table.create () in
      Table.install_all t flows;
      let live = Table.snapshot t and built = Table.snapshot_of_flows flows in
      let find_live = Table.searcher live and find_built = Table.searcher built in
      Table.snapshot_size built = Table.snapshot_size live
      && List.for_all (fun pkt -> find_built pkt = find_live pkt) pkts)

(* The RCU contract: a published snapshot is frozen.  A reader domain
   drains the packet vector against it while the owner domain keeps
   installing, removing, and republishing; the reader must see exactly
   the answers the snapshot's own linear scan gave before the churn
   started, and the post-churn snapshot must match the mutated table. *)
let prop_snapshot_frozen_under_churn =
  QCheck2.Test.make
    ~name:"RCU snapshot lookups are immutable under concurrent rebuilds"
    ~count:50
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 50) gen_engine_flow)
        (list_size (int_range 1 30) gen_engine_flow)
        (list_size (int_range 1 30) gen_engine_packet))
    (fun (initial, later, pkts) ->
      let t = Table.create () in
      Table.install_all t initial;
      let snap = Table.snapshot t in
      let arr = Array.of_list pkts in
      let oracle = Array.map (Table.snapshot_linear snap) arr in
      let reader =
        Sync.Domain.spawn (fun () ->
            let find = Table.searcher snap in
            Array.map find arr)
      in
      List.iter
        (fun f ->
          Table.install t f;
          ignore (Table.snapshot t))
        later;
      ignore (Table.remove_where t (fun (f : Flow.t) -> f.priority = 0));
      let fresh = Table.snapshot t in
      let got = Sync.Domain.join reader in
      got = oracle
      && (let find = Table.searcher fresh in
          Array.for_all (fun pkt -> find pkt = Table.lookup_linear t pkt) arr)
      && Table.snapshot_size fresh = Table.size t)

(* ------------------------------------------------------------------ *)
(* Switch                                                              *)

let test_switch_bad_table () =
  let sw = Switch.create () in
  Alcotest.check_raises "bad table id" (Invalid_argument "Switch.table: no table 3")
    (fun () -> ignore (Switch.table sw 3))

(* Property: a classifier installed as a switch's table behaves exactly
   like the classifier itself — the first matching entry's actions,
   each applied to the packet. *)

let addr x = Ipv4.of_int (0x0A000000 lor (x land 7))

let gen_packet =
  let open QCheck2.Gen in
  let* port = int_range 0 3 in
  let* dst_ip = map addr (int_range 0 7) in
  let* src_ip = map addr (int_range 0 7) in
  let* dst_port = oneofl [ 80; 443 ] in
  return (Packet.make ~port ~dst_ip ~src_ip ~dst_port ())

let gen_small_policy =
  let open QCheck2.Gen in
  let gen_pred =
    oneof
      [
        map Pred.dst_port (oneofl [ 80; 443 ]);
        map (fun x -> Pred.src_ip (Prefix.make (addr x) 31)) (int_range 0 7);
        map Pred.port (int_range 0 3);
      ]
  in
  let* p1 = gen_pred in
  let* p2 = gen_pred in
  let* a = int_range 0 3 in
  let* b = int_range 0 3 in
  return
    (Policy.if_ p1 (Policy.fwd a) (Policy.if_ p2 (Policy.fwd b) Policy.drop))

let prop_table_matches_classifier =
  QCheck2.Test.make ~name:"table first match = classifier eval" ~count:1000
    QCheck2.Gen.(pair gen_small_policy gen_packet)
    (fun (pol, pkt) ->
      let c = Classifier.compile pol in
      let t = Switch.table (Switch.create ()) 0 in
      Table.install_all t (Flow.of_classifier c);
      let outs =
        match Table.lookup t pkt with
        | None -> []
        | Some f -> List.map (fun m -> Mods.apply m pkt) f.Flow.actions
      in
      Packet.Set.elements (Packet.Set.of_list outs) = Classifier.eval c pkt)

(* ------------------------------------------------------------------ *)
(* Messages and the control channel                                    *)

let test_connection_flow_mods () =
  let sw = Switch.create () in
  let conn = Connection.create sw in
  let f1 = flow ~priority:10 [ out 1 ] in
  let f2 = flow ~priority:20 ~pattern:(Pattern.make ~dst_port:80 ()) [ out 2 ] in
  Connection.send conn (Message.add f1);
  Connection.send conn (Message.add ~cookie:7 f2);
  check_int "two applied" 2 (Connection.flow_mods_applied conn);
  check_int "installed" 2 (List.length (Connection.installed conn));
  Connection.send conn (Message.delete f1);
  check_int "one left" 1 (List.length (Connection.installed conn));
  (* Cookie-based bulk delete. *)
  Connection.send conn (Message.delete_cookie 7);
  check_int "empty after cookie delete" 0 (List.length (Connection.installed conn))

let test_connection_barrier_echo () =
  let conn = Connection.create (Switch.create ()) in
  Connection.send conn (Message.Barrier_request 42);
  Connection.send conn (Message.Echo_request 43);
  check_bool "barrier reply" true (Connection.recv conn = Some (Message.Barrier_reply 42));
  check_bool "echo reply" true (Connection.recv conn = Some (Message.Echo_reply 43));
  check_bool "queue drained" true (Connection.recv conn = None)

(* Regression: the switch-to-controller queue was a single list reversed
   on every send AND every receive — O(n^2) per drain and, worse,
   re-reversal could reorder.  The two-list FIFO must deliver in arrival
   order under interleaved queue/recv. *)
let test_connection_queue_fifo_interleaved () =
  let conn = Connection.create (Switch.create ()) in
  let echo i = Connection.send conn (Message.Echo_request i) in
  let recv_xid () =
    match Connection.recv conn with
    | Some (Message.Echo_reply xid) -> xid
    | _ -> Alcotest.fail "expected an echo reply"
  in
  echo 1;
  echo 2;
  echo 3;
  check_int "pending" 3 (Connection.pending conn);
  check_int "first out" 1 (recv_xid ());
  echo 4;
  echo 5;
  check_int "pending mid-drain" 4 (Connection.pending conn);
  check_int "second" 2 (recv_xid ());
  check_int "third" 3 (recv_xid ());
  check_int "fourth" 4 (recv_xid ());
  check_int "fifth" 5 (recv_xid ());
  check_bool "drained" true (Connection.recv conn = None);
  check_int "pending drained" 0 (Connection.pending conn)

let test_connection_barrier_helper () =
  let conn = Connection.create (Switch.create ()) in
  (* Replies queued before the barrier must survive it, in order. *)
  Connection.send conn (Message.Echo_request 7);
  Connection.send conn (Message.add (flow [ out 2 ]));
  check_bool "barrier answered" true (Connection.barrier conn 99);
  check_int "echo reply kept" 1 (Connection.pending conn);
  check_bool "order preserved" true
    (Connection.recv conn = Some (Message.Echo_reply 7));
  check_bool "no stray reply" true (Connection.recv conn = None)

(* An ADD that overwrites a slot files it under the new cookie only:
   [delete_cookie old] must leave the new entry alone. *)
let test_connection_overwrite_refiles_cookie () =
  let conn = Connection.create (Switch.create ()) in
  let slot = Pattern.make ~dst_port:80 () in
  Connection.send conn (Message.add ~cookie:1 (flow ~priority:10 ~pattern:slot [ out 1 ]));
  Connection.send conn (Message.add ~cookie:2 (flow ~priority:10 ~pattern:slot [ out 2 ]));
  Connection.send conn (Message.delete_cookie 1);
  check_int "overwritten entry survives its old cookie" 1
    (List.length (Connection.installed conn));
  Connection.send conn (Message.delete_cookie 2);
  check_int "and goes with its new one" 0 (List.length (Connection.installed conn));
  check_int "every mod counted" 3 (Connection.flow_mods_applied conn)

(* A strict delete unfiles its slot whatever actions the request
   carries, so a later [delete_cookie] cannot reach an unrelated entry
   re-added in that slot. *)
let test_connection_strict_delete_unfiles_cookie () =
  let conn = Connection.create (Switch.create ()) in
  let slot = Pattern.make ~dst_port:80 () in
  Connection.send conn (Message.add ~cookie:5 (flow ~priority:10 ~pattern:slot [ out 1 ]));
  Connection.send conn (Message.delete (flow ~priority:10 ~pattern:slot [ out 9 ]));
  check_int "strict delete matches on the slot" 0 (List.length (Connection.installed conn));
  Connection.send conn (Message.add (flow ~priority:10 ~pattern:slot [ out 3 ]));
  Connection.send conn (Message.delete_cookie 5);
  check_int "re-added entry is not the cookie's" 1
    (List.length (Connection.installed conn));
  check_int "the empty cookie delete applied nothing" 3
    (Connection.flow_mods_applied conn)

let gen_flow_mod =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun cookie f -> Message.add ~cookie f) (int_range 0 3) gen_engine_flow;
        map Message.delete gen_engine_flow;
        map Message.delete_cookie (int_range 1 3);
      ])

(* Batches short and long (past the empty table's staleness budget of
   64) land exactly where the same messages sent one by one do. *)
let prop_send_all_equals_send =
  QCheck2.Test.make ~name:"send_all batch = sequential sends" ~count:200
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 40) gen_flow_mod)
        (list_size (int_range 0 120) gen_flow_mod)
        (list_size (int_range 1 20) gen_engine_packet))
    (fun (first, second, pkts) ->
      let sw_batched = Switch.create () and sw_single = Switch.create () in
      let batched = Connection.create sw_batched in
      let single = Connection.create sw_single in
      List.iter
        (fun msgs ->
          Connection.send_all batched msgs;
          List.iter (Connection.send single) msgs)
        [ first; second ];
      Connection.installed batched = Connection.installed single
      && Connection.flow_mods_applied batched = Connection.flow_mods_applied single
      && List.for_all
           (fun pkt ->
             Table.lookup (Switch.table sw_batched 0) pkt
             = Table.lookup_linear (Switch.table sw_single 0) pkt)
           pkts)

let test_connection_rejects_switch_messages () =
  let conn = Connection.create (Switch.create ()) in
  check_bool "reply rejected" true
    (try
       Connection.send conn (Message.Barrier_reply 1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "sdx_openflow"
    [
      ("flow", [ Alcotest.test_case "of_classifier" `Quick test_flow_of_classifier ]);
      ( "table",
        [
          Alcotest.test_case "priority order" `Quick test_table_priority_order;
          Alcotest.test_case "add overwrites" `Quick test_table_add_overwrites;
          Alcotest.test_case "capacity" `Quick test_table_capacity;
          Alcotest.test_case "remove" `Quick test_table_remove;
          Alcotest.test_case "hits" `Quick test_table_hits;
          Alcotest.test_case "clear" `Quick test_table_clear;
          Alcotest.test_case "engine layers" `Quick test_table_engine_layers;
          Alcotest.test_case "dst_mac layer" `Quick test_table_mac_layer;
          Alcotest.test_case "lookups allocate nothing" `Quick test_table_lookup_allocation;
          Alcotest.test_case "engine rebuilds" `Quick test_table_engine_rebuilds;
          Alcotest.test_case "install_all batch" `Quick test_table_install_all_batch;
          Alcotest.test_case "overwrite resets counter" `Quick
            test_table_overwrite_resets_counter;
        ]
        @ qsuite
            [
              prop_engine_equals_linear_oracle;
              prop_install_all_equals_sequential;
              prop_snapshot_frozen_under_churn;
              prop_snapshot_of_flows_equals_install_all;
            ] );
      ( "switch",
        [
          Alcotest.test_case "bad table" `Quick test_switch_bad_table;
        ]
        @ qsuite [ prop_table_matches_classifier ] );
      ( "connection",
        [
          Alcotest.test_case "flow mods" `Quick test_connection_flow_mods;
          Alcotest.test_case "barrier/echo" `Quick test_connection_barrier_echo;
          Alcotest.test_case "queue FIFO interleaved" `Quick
            test_connection_queue_fifo_interleaved;
          Alcotest.test_case "barrier helper" `Quick
            test_connection_barrier_helper;
          Alcotest.test_case "overwrite refiles cookie" `Quick
            test_connection_overwrite_refiles_cookie;
          Alcotest.test_case "strict delete unfiles cookie" `Quick
            test_connection_strict_delete_unfiles_cookie;
          Alcotest.test_case "rejects switch messages" `Quick
            test_connection_rejects_switch_messages;
        ]
        @ qsuite [ prop_send_all_equals_send ] );
    ]
