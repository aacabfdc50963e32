(* Tests for the BGP substrate: routes, the decision process, the route
   server, AS-path regular expressions, and session modeling. *)

open Sdx_net
open Sdx_bgp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let asn = Asn.of_int
let ip = Ipv4.of_string
let pfx = Prefix.of_string

let route ?(prefix = pfx "20.0.0.0/16") ?(next_hop = ip "10.0.0.1")
    ?(as_path = [ asn 100; asn 65000 ]) ?local_pref ?med ?origin
    ?(learned_from = asn 100) () =
  Route.make ~prefix ~next_hop ~as_path ?local_pref ?med ?origin ~learned_from ()

(* ------------------------------------------------------------------ *)
(* Route                                                               *)

let test_route_accessors () =
  let r = route ~as_path:[ asn 1; asn 2; asn 3 ] () in
  check_bool "origin as" true (Route.origin_as r = Some (asn 3));
  check_string "path string" "1 2 3" (Route.as_path_string r);
  check_bool "empty path origin" true
    (Route.origin_as (route ~as_path:[] ()) = None)

let test_route_prepend () =
  let r = Route.prepend (asn 9) (route ~as_path:[ asn 1 ] ()) in
  check_string "prepended" "9 1" (Route.as_path_string r)

let test_route_with_next_hop () =
  let r = Route.with_next_hop (ip "1.1.1.1") (route ()) in
  check_string "next hop" "1.1.1.1" (Ipv4.to_string r.next_hop)

(* ------------------------------------------------------------------ *)
(* Decision process                                                    *)

let test_decision_local_pref () =
  let lo = route ~local_pref:100 () in
  let hi = route ~local_pref:200 ~learned_from:(asn 200) () in
  check_bool "higher local pref wins" true (Decision.prefer hi lo > 0);
  check_bool "best" true (Decision.best [ lo; hi ] = Some hi)

let test_decision_as_path_length () =
  let short = route ~as_path:[ asn 1; asn 2 ] () in
  let long = route ~as_path:[ asn 1; asn 2; asn 3 ] ~learned_from:(asn 200) () in
  check_bool "shorter path wins" true (Decision.prefer short long > 0)

let test_decision_origin () =
  let igp = route ~origin:Route.Igp () in
  let egp = route ~origin:Route.Egp ~learned_from:(asn 200) () in
  let incomplete = route ~origin:Route.Incomplete ~learned_from:(asn 300) () in
  check_bool "igp over egp" true (Decision.prefer igp egp > 0);
  check_bool "egp over incomplete" true (Decision.prefer egp incomplete > 0)

let test_decision_med () =
  let lo_med = route ~med:5 () in
  let hi_med = route ~med:50 ~learned_from:(asn 200) () in
  check_bool "lower med wins" true (Decision.prefer lo_med hi_med > 0)

let test_decision_tiebreaks () =
  let a = route ~learned_from:(asn 100) () in
  let b = route ~learned_from:(asn 200) () in
  check_bool "lower neighbor asn wins" true (Decision.prefer a b > 0);
  let c = route ~next_hop:(ip "10.0.0.1") () in
  let d = route ~next_hop:(ip "10.0.0.2") () in
  check_bool "lower next hop wins" true (Decision.prefer c d > 0);
  check_int "identical routes tie" 0 (Decision.prefer a a)

let test_decision_priority_order () =
  (* Local pref beats a shorter path; path length beats origin. *)
  let pref_long = route ~local_pref:200 ~as_path:[ asn 1; asn 2; asn 3 ] () in
  let nopref_short = route ~as_path:[ asn 1 ] ~learned_from:(asn 200) () in
  check_bool "local pref first" true (Decision.prefer pref_long nopref_short > 0);
  let short_incomplete =
    route ~as_path:[ asn 1 ] ~origin:Route.Incomplete ()
  in
  let long_igp =
    route ~as_path:[ asn 1; asn 2 ] ~origin:Route.Igp ~learned_from:(asn 200) ()
  in
  check_bool "path length before origin" true
    (Decision.prefer short_incomplete long_igp > 0)

let test_decision_sort () =
  let a = route ~local_pref:300 () in
  let b = route ~local_pref:200 ~learned_from:(asn 200) () in
  let c = route ~local_pref:100 ~learned_from:(asn 300) () in
  check_bool "sorted best first" true (Decision.sort [ c; a; b ] = [ a; b; c ]);
  check_bool "best of empty" true (Decision.best [] = None)

let gen_route =
  let open QCheck2.Gen in
  let* local_pref = int_range 0 3 in
  let* path_len = int_range 1 4 in
  let* med = int_range 0 2 in
  let* origin = oneofl [ Route.Igp; Route.Egp; Route.Incomplete ] in
  let* from = int_range 1 5 in
  let* nh = int_range 1 5 in
  return
    (route ~local_pref ~med ~origin
       ~as_path:(List.init path_len (fun i -> asn (i + 1)))
       ~learned_from:(asn from)
       ~next_hop:(Ipv4.of_int nh) ())

let prop_prefer_antisymmetric =
  QCheck2.Test.make ~name:"prefer is antisymmetric" ~count:1000
    QCheck2.Gen.(pair gen_route gen_route)
    (fun (a, b) ->
      let ab = Decision.prefer a b and ba = Decision.prefer b a in
      (ab > 0 && ba < 0) || (ab < 0 && ba > 0) || (ab = 0 && ba = 0))

let prop_prefer_transitive =
  QCheck2.Test.make ~name:"prefer is transitive" ~count:1000
    QCheck2.Gen.(triple gen_route gen_route gen_route)
    (fun (a, b, c) ->
      (not (Decision.prefer a b >= 0 && Decision.prefer b c >= 0))
      || Decision.prefer a c >= 0)

let prop_best_is_max =
  QCheck2.Test.make ~name:"best is preferred over every candidate" ~count:500
    QCheck2.Gen.(list_size (int_range 1 8) gen_route)
    (fun routes ->
      match Decision.best routes with
      | None -> false
      | Some b -> List.for_all (fun r -> Decision.prefer b r >= 0) routes)

(* ------------------------------------------------------------------ *)
(* Route server                                                        *)

let peers = [ asn 1; asn 2; asn 3 ]

let announce server ~peer ~prefix ?(path_len = 2) ?(nh = "10.0.0.1") () =
  (* Paths continue into far-away ASes so they never collide with the
     other exchange participants (which would trip loop prevention). *)
  Route_server.apply server
    (Update.announce
       (Route.make ~prefix ~next_hop:(ip nh)
          ~as_path:
            (peer :: List.init (path_len - 1) (fun i -> asn (65_000 + i)))
          ~learned_from:peer ()))

let test_server_basic_announce () =
  let server = Route_server.create peers in
  let change = announce server ~peer:(asn 1) ~prefix:(pfx "20.0.0.0/16") () in
  check_bool "prefix" true (Prefix.equal change.prefix (pfx "20.0.0.0/16"));
  (* Everyone except the advertiser sees a new best route. *)
  check_int "best changed for 2 receivers" 2 (List.length change.best_changed_for);
  check_bool "advertiser unchanged" false
    (List.exists (Asn.equal (asn 1)) change.best_changed_for);
  check_bool "best for 2" true
    (Option.is_some (Route_server.best server ~receiver:(asn 2) (pfx "20.0.0.0/16")));
  check_bool "no route back to advertiser" true
    (Route_server.best server ~receiver:(asn 1) (pfx "20.0.0.0/16") = None)

let test_server_best_selection () =
  let server = Route_server.create peers in
  ignore (announce server ~peer:(asn 1) ~prefix:(pfx "20.0.0.0/16") ~path_len:3 ());
  ignore
    (announce server ~peer:(asn 2) ~prefix:(pfx "20.0.0.0/16") ~path_len:2
       ~nh:"10.0.0.2" ());
  (match Route_server.best server ~receiver:(asn 3) (pfx "20.0.0.0/16") with
  | Some r -> check_bool "shorter path chosen" true (Asn.equal r.learned_from (asn 2))
  | None -> Alcotest.fail "no best route");
  (* The winner's own best is the other candidate. *)
  match Route_server.best server ~receiver:(asn 2) (pfx "20.0.0.0/16") with
  | Some r -> check_bool "advertiser sees other" true (Asn.equal r.learned_from (asn 1))
  | None -> Alcotest.fail "no best for advertiser"

let test_server_withdraw () =
  let server = Route_server.create peers in
  ignore (announce server ~peer:(asn 1) ~prefix:(pfx "20.0.0.0/16") ());
  let change =
    Route_server.apply server (Update.withdraw ~peer:(asn 1) (pfx "20.0.0.0/16"))
  in
  check_int "best changed" 2 (List.length change.best_changed_for);
  check_bool "gone" true
    (Route_server.best server ~receiver:(asn 2) (pfx "20.0.0.0/16") = None);
  check_int "no prefixes left" 0 (Route_server.prefix_count server)

let test_server_noop_change () =
  let server = Route_server.create peers in
  ignore (announce server ~peer:(asn 1) ~prefix:(pfx "20.0.0.0/16") ~path_len:2 ());
  (* A worse route appearing does not change anyone's best. *)
  let change =
    announce server ~peer:(asn 2) ~prefix:(pfx "20.0.0.0/16") ~path_len:4
      ~nh:"10.0.0.9" ()
  in
  (* ...except the original advertiser, who previously had no route. *)
  check_bool "only advertiser 1 gains a route" true
    (change.best_changed_for = [ asn 1 ])

let test_server_export_policy () =
  (* AS 1 does not export to AS 3. *)
  let export ~advertiser ~receiver =
    not (Asn.equal advertiser (asn 1) && Asn.equal receiver (asn 3))
  in
  let server = Route_server.create ~export peers in
  ignore (announce server ~peer:(asn 1) ~prefix:(pfx "20.0.0.0/16") ());
  check_bool "2 sees it" true
    (Option.is_some (Route_server.best server ~receiver:(asn 2) (pfx "20.0.0.0/16")));
  check_bool "3 filtered" true
    (Route_server.best server ~receiver:(asn 3) (pfx "20.0.0.0/16") = None);
  check_bool "reachable respects export" true
    (Route_server.reachable_prefixes server ~receiver:(asn 3) ~via:(asn 1) = []);
  check_int "reachable for 2" 1
    (List.length (Route_server.reachable_prefixes server ~receiver:(asn 2) ~via:(asn 1)))

let test_server_feasible () =
  let server = Route_server.create peers in
  ignore (announce server ~peer:(asn 1) ~prefix:(pfx "20.0.0.0/16") ~path_len:3 ());
  ignore
    (announce server ~peer:(asn 2) ~prefix:(pfx "20.0.0.0/16") ~path_len:2
       ~nh:"10.0.0.2" ());
  let feasible = Route_server.feasible server ~receiver:(asn 3) (pfx "20.0.0.0/16") in
  check_int "two feasible routes" 2 (List.length feasible);
  check_bool "best first" true
    (Asn.equal (List.hd feasible).learned_from (asn 2))

let test_server_unknown_peer () =
  let server = Route_server.create peers in
  Alcotest.check_raises "unknown participant"
    (Invalid_argument "Route_server: unknown participant AS99") (fun () ->
      ignore (announce server ~peer:(asn 99) ~prefix:(pfx "20.0.0.0/16") ()))

let test_server_loop_prevention () =
  let server = Route_server.create peers in
  (* AS 1 re-announces a route whose path already traverses AS 2. *)
  ignore
    (Route_server.apply server
       (Update.announce
          (Route.make ~prefix:(pfx "20.0.0.0/16") ~next_hop:(ip "10.0.0.1")
             ~as_path:[ asn 1; asn 2; asn 65000 ] ~learned_from:(asn 1) ())));
  check_bool "loop_free predicate" false
    (Route_server.loop_free
       (route ~as_path:[ asn 1; asn 2; asn 65000 ] ())
       ~receiver:(asn 2));
  (* AS 2 must never receive it; AS 3 may. *)
  check_bool "looped route withheld" true
    (Route_server.best server ~receiver:(asn 2) (pfx "20.0.0.0/16") = None);
  check_bool "clean receiver gets it" true
    (Option.is_some (Route_server.best server ~receiver:(asn 3) (pfx "20.0.0.0/16")));
  check_bool "reachability agrees" true
    (Route_server.reachable_prefixes server ~receiver:(asn 2) ~via:(asn 1) = [])

let test_server_lookup_best () =
  let server = Route_server.create peers in
  ignore (announce server ~peer:(asn 1) ~prefix:(pfx "20.0.0.0/16") ());
  ignore
    (announce server ~peer:(asn 2) ~prefix:(pfx "20.0.1.0/24") ~nh:"10.0.0.2" ());
  (match Route_server.lookup_best server ~receiver:(asn 3) (ip "20.0.1.9") with
  | Some (prefix, r) ->
      check_bool "most specific" true (Prefix.equal prefix (pfx "20.0.1.0/24"));
      check_bool "from 2" true (Asn.equal r.learned_from (asn 2))
  | None -> Alcotest.fail "lookup failed");
  check_bool "miss" true
    (Route_server.lookup_best server ~receiver:(asn 3) (ip "99.0.0.1") = None);
  (* The /24's advertiser falls back to the covering /16. *)
  match Route_server.lookup_best server ~receiver:(asn 2) (ip "20.0.1.9") with
  | Some (prefix, _) ->
      check_bool "covering prefix" true (Prefix.equal prefix (pfx "20.0.0.0/16"))
  | None -> Alcotest.fail "fallback lookup failed"

let test_server_fold_and_prefixes () =
  let server = Route_server.create peers in
  ignore (announce server ~peer:(asn 1) ~prefix:(pfx "20.0.0.0/16") ());
  ignore (announce server ~peer:(asn 1) ~prefix:(pfx "21.0.0.0/16") ());
  check_int "all prefixes" 2 (List.length (Route_server.all_prefixes server));
  check_int "prefixes of peer" 2 (List.length (Route_server.prefixes_of server (asn 1)));
  let n =
    Route_server.fold_best server ~receiver:(asn 2) (fun _ _ acc -> acc + 1) 0
  in
  check_int "fold over local rib" 2 n;
  (* The advertiser's own local RIB is empty. *)
  let n1 =
    Route_server.fold_best server ~receiver:(asn 1) (fun _ _ acc -> acc + 1) 0
  in
  check_int "advertiser rib empty" 0 n1

let test_server_burst () =
  let server = Route_server.create peers in
  let updates =
    List.init 5 (fun i ->
        Update.announce
          (Route.make
             ~prefix:(Prefix.make (Ipv4.of_int (0x14000000 + (i * 65536))) 16)
             ~next_hop:(ip "10.0.0.1")
             ~as_path:[ asn 1; asn 65000 ]
             ~learned_from:(asn 1) ()))
  in
  let changes = Route_server.apply_burst server updates in
  check_int "five changes" 5 (List.length changes);
  check_int "five prefixes" 5 (Route_server.prefix_count server)

(* ------------------------------------------------------------------ *)
(* AS-path regular expressions                                         *)

let test_as_path_regex () =
  (* The paper's YouTube example: all routes whose path ends at 43515. *)
  let re = As_path_regex.compile ".*43515$" in
  let youtube = route ~as_path:[ asn 3356; asn 43515 ] () in
  let other = route ~as_path:[ asn 3356; asn 15169 ] () in
  check_bool "match" true (As_path_regex.matches re youtube);
  check_bool "no match" false (As_path_regex.matches re other);
  check_int "filter" 1 (List.length (As_path_regex.filter re [ youtube; other ]));
  check_string "source kept" ".*43515$" (As_path_regex.source re)

let test_as_path_regex_anchors () =
  let re = As_path_regex.compile "^100 " in
  check_bool "anchored start" true
    (As_path_regex.matches re (route ~as_path:[ asn 100; asn 2 ] ()));
  check_bool "not mid-path" false
    (As_path_regex.matches re (route ~as_path:[ asn 2; asn 100; asn 3 ] ()))

let test_as_path_regex_invalid () =
  check_bool "invalid raises" true
    (try
       ignore (As_path_regex.compile "(unclosed");
       false
     with Invalid_argument _ -> true)

let test_server_filter_as_path () =
  let server = Route_server.create peers in
  ignore
    (Route_server.apply server
       (Update.announce
          (Route.make ~prefix:(pfx "20.0.0.0/16") ~next_hop:(ip "10.0.0.1")
             ~as_path:[ asn 1; asn 43515 ] ~learned_from:(asn 1) ())));
  ignore
    (Route_server.apply server
       (Update.announce
          (Route.make ~prefix:(pfx "21.0.0.0/16") ~next_hop:(ip "10.0.0.1")
             ~as_path:[ asn 1; asn 15169 ] ~learned_from:(asn 1) ())));
  let re = As_path_regex.compile ".*43515$" in
  let matches = Route_server.filter_prefixes_by_as_path server ~receiver:(asn 2) re in
  check_bool "only youtube prefix" true (matches = [ pfx "20.0.0.0/16" ])

let test_server_filter_community () =
  let server = Route_server.create peers in
  let announce_with prefix communities =
    ignore
      (Route_server.apply server
         (Update.announce
            (Route.make ~prefix ~next_hop:(ip "10.0.0.1")
               ~as_path:[ asn 1; asn 65000 ] ~communities ~learned_from:(asn 1) ())))
  in
  announce_with (pfx "20.0.0.0/16") [ (65000, 666) ];
  announce_with (pfx "21.0.0.0/16") [ (65000, 100); (65000, 666) ];
  announce_with (pfx "22.0.0.0/16") [];
  let tagged =
    Route_server.filter_prefixes_by_community server ~receiver:(asn 2) (65000, 666)
  in
  check_int "two tagged prefixes" 2 (List.length tagged);
  check_bool "untagged excluded" false (List.mem (pfx "22.0.0.0/16") tagged)

(* ------------------------------------------------------------------ *)
(* Peer: wire + FSM glued over a byte stream                           *)

let mk_peer ~local_asn ~local_id ~remote_asn =
  Peer.create
    ~local:{ Wire.asn = local_asn; hold_time = 90; bgp_id = ip local_id }
    ~peer_asn:remote_asn

(* Shuttle bytes between two endpoints until both go quiet, optionally
   fragmenting every transmission into 1-byte pieces. *)
let shuttle ?(fragment = false) a b =
  let deliver dst data =
    if fragment then
      Bytes.iter
        (fun ch ->
          match Peer.feed dst (Bytes.make 1 ch) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e)
        data
    else
      match Peer.feed dst data with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e
  in
  let rec go guard =
    if guard = 0 then Alcotest.fail "session negotiation did not converge";
    let out_a = Peer.pending_output a and out_b = Peer.pending_output b in
    if out_a = [] && out_b = [] then ()
    else begin
      List.iter (deliver b) out_a;
      List.iter (deliver a) out_b;
      go (guard - 1)
    end
  in
  go 10

let test_peer_establishment () =
  let a = mk_peer ~local_asn:(asn 64512) ~local_id:"10.0.0.1" ~remote_asn:(asn 2) in
  let b = mk_peer ~local_asn:(asn 2) ~local_id:"10.0.0.2" ~remote_asn:(asn 64512) in
  Peer.connect a;
  Peer.connect b;
  shuttle a b;
  check_bool "a established" true (Peer.state a = Fsm.Established);
  check_bool "b established" true (Peer.state b = Fsm.Established);
  (match Peer.remote_open a with
  | Some o -> check_bool "a learned b's asn" true (Asn.equal o.asn (asn 2))
  | None -> Alcotest.fail "no remote open");
  check_bool "no flush during bring-up" false (Peer.flush_requested a)

let test_peer_update_exchange_fragmented () =
  let a = mk_peer ~local_asn:(asn 64512) ~local_id:"10.0.0.1" ~remote_asn:(asn 2) in
  let b = mk_peer ~local_asn:(asn 2) ~local_id:"10.0.0.2" ~remote_asn:(asn 64512) in
  Peer.connect a;
  Peer.connect b;
  shuttle ~fragment:true a b;
  check_bool "established over fragmented stream" true
    (Peer.state a = Fsm.Established && Peer.state b = Fsm.Established);
  (* b announces a route; a receives it attributed to b's ASN. *)
  let r = route ~prefix:(pfx "20.0.0.0/16") ~learned_from:(asn 2) () in
  Peer.send_update b (Update.announce r);
  let received = ref [] in
  List.iter
    (fun data ->
      (* one byte at a time *)
      Bytes.iter
        (fun ch ->
          match Peer.feed a (Bytes.make 1 ch) with
          | Ok us -> received := !received @ us
          | Error e -> Alcotest.fail e)
        data)
    (Peer.pending_output b);
  match !received with
  | [ Update.Announce r' ] ->
      check_bool "prefix" true (Prefix.equal r'.prefix (pfx "20.0.0.0/16"));
      check_bool "attributed to peer" true (Asn.equal r'.learned_from (asn 2))
  | _ -> Alcotest.fail "expected exactly one announce"

let test_peer_hold_expiry_flushes () =
  let a = mk_peer ~local_asn:(asn 64512) ~local_id:"10.0.0.1" ~remote_asn:(asn 2) in
  let b = mk_peer ~local_asn:(asn 2) ~local_id:"10.0.0.2" ~remote_asn:(asn 64512) in
  Peer.connect a;
  Peer.connect b;
  shuttle a b;
  Peer.hold_expired a;
  check_bool "torn down" true (Peer.state a = Fsm.Idle);
  check_bool "flush requested" true (Peer.flush_requested a);
  check_bool "flag clears on read" false (Peer.flush_requested a);
  (* The notification reaches b and tears it down too. *)
  List.iter
    (fun data -> ignore (Result.get_ok (Peer.feed b data)))
    (Peer.pending_output a);
  check_bool "b idle after notification" true (Peer.state b = Fsm.Idle);
  check_bool "b flushes too" true (Peer.flush_requested b)

let test_peer_garbage_tears_down () =
  let a = mk_peer ~local_asn:(asn 64512) ~local_id:"10.0.0.1" ~remote_asn:(asn 2) in
  Peer.connect a;
  check_bool "garbage rejected" true
    (Result.is_error (Peer.feed a (Bytes.make 19 '\000')));
  check_bool "idle after garbage" true (Peer.state a = Fsm.Idle)

(* Garbage tears a session down together with its transport, after
   queueing the NOTIFICATION it calls for (1/2: the declared length is
   below 19); a reconnect starts on a fresh byte stream, so the session
   comes back and carries UPDATEs again. *)
let test_peer_reconnects_after_garbage () =
  let a = mk_peer ~local_asn:(asn 64512) ~local_id:"10.0.0.1" ~remote_asn:(asn 2) in
  let b = mk_peer ~local_asn:(asn 2) ~local_id:"10.0.0.2" ~remote_asn:(asn 64512) in
  Peer.connect a;
  Peer.connect b;
  shuttle a b;
  List.iter
    (fun p ->
      check_bool "garbage rejected" true
        (Result.is_error (Peer.feed p (Bytes.make 19 '\000')));
      check_bool "idle after garbage" true (Peer.state p = Fsm.Idle);
      check_bool "exactly one NOTIFICATION 1/2" true
        (List.map Wire.decode (Peer.pending_output p)
        = [ Ok (Wire.Notification { code = 1; subcode = 2 }) ]))
    [ a; b ];
  Peer.connect a;
  Peer.connect b;
  shuttle a b;
  check_bool "a re-established" true (Peer.state a = Fsm.Established);
  check_bool "b re-established" true (Peer.state b = Fsm.Established);
  Peer.send_update b
    (Update.announce (route ~prefix:(pfx "20.0.0.0/16") ~learned_from:(asn 2) ()));
  match List.map (Peer.feed a) (Peer.pending_output b) with
  | [ Ok [ Update.Announce r ] ] ->
      check_bool "update decodes" true (Prefix.equal r.prefix (pfx "20.0.0.0/16"))
  | _ -> Alcotest.fail "expected exactly one announce"

(* Framing: N concatenated UPDATEs, fed whole or split at random
   offsets (mid-header included), yield exactly the updates of N single
   feeds; a declared length below 19 after them still errors. *)
let established_pair () =
  let a = mk_peer ~local_asn:(asn 64512) ~local_id:"10.0.0.1" ~remote_asn:(asn 2) in
  let b = mk_peer ~local_asn:(asn 2) ~local_id:"10.0.0.2" ~remote_asn:(asn 64512) in
  Peer.connect a;
  Peer.connect b;
  shuttle a b;
  a

let gen_framing_case =
  let open QCheck2.Gen in
  let gen_update =
    let* k = int_range 0 4095 in
    let prefix = Prefix.make (Ipv4.of_int ((20 lsl 24) lor (k lsl 8))) 24 in
    let* withdraw = bool in
    if withdraw then return (Update.withdraw ~peer:(asn 2) prefix)
    else
      let* tail = list_size (int_range 0 4) (map asn (int_range 1 65000)) in
      let* med = int_range 0 100 in
      return
        (Update.announce
           (Route.make ~prefix ~next_hop:(ip "10.0.0.2") ~as_path:(asn 2 :: tail) ~med
              ~learned_from:(asn 2) ()))
  in
  let* n = frequency [ (3, int_range 1 50); (1, int_range 1000 3000) ] in
  let* updates = list_repeat n gen_update in
  let* cuts = list_size (int_range 0 40) (int_range 0 max_int) in
  return (updates, cuts)

(* [data] split at the given cut points (taken modulo its length). *)
let split_at data cuts =
  let len = Bytes.length data in
  let cuts =
    List.sort_uniq Int.compare (List.map (fun c -> if len = 0 then 0 else c mod len) cuts)
  in
  let rec go from = function
    | [] -> [ Bytes.sub data from (len - from) ]
    | c :: rest -> Bytes.sub data from (c - from) :: go c rest
  in
  go 0 cuts

let prop_peer_framing =
  QCheck2.Test.make ~name:"feeding concatenated UPDATEs = feeding each" ~count:30
    ~print:(fun (updates, cuts) ->
      Printf.sprintf "%d updates, cuts %s" (List.length updates)
        (String.concat " " (List.map string_of_int cuts)))
    gen_framing_case
    (fun (updates, cuts) ->
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let encoded = List.map (fun u -> Wire.encode (Wire.of_update u)) updates in
      let single = established_pair () in
      let expected =
        List.concat_map
          (fun m ->
            match Peer.feed single m with
            | Ok us -> us
            | Error e -> fail "single feed: %s" e)
          encoded
      in
      let whole = Bytes.concat Bytes.empty encoded in
      let feed_all peer chunks =
        List.fold_left
          (fun (got, err) chunk ->
            match err with
            | Some _ -> (got, err)
            | None -> (
                match Peer.feed peer chunk with
                | Ok us -> (List.rev_append us got, None)
                | Error e -> (got, Some e)))
          ([], None) chunks
      in
      let check name chunks =
        match feed_all (established_pair ()) chunks with
        | _, Some e -> fail "%s: %s" name e
        | got, None ->
            if List.rev got <> expected then fail "%s: updates differ" name
      in
      check "whole" [ whole ];
      check "split" (split_at whole cuts);
      (* A header declaring 18 bytes after the updates. *)
      let short = Bytes.make 19 '\xff' in
      Bytes.set_uint16_be short 16 18;
      Bytes.set_uint8 short 18 2;
      (match
         feed_all (established_pair ())
           (split_at (Bytes.cat whole short) cuts)
       with
      | _, None -> fail "a declared length below 19 was accepted"
      | got, Some e ->
          (* The feed that errs returns no updates; those before it are
             the first of the expected ones. *)
          if e <> "declared message length below 19" then fail "wrong error: %s" e;
          let rec is_prefix = function
            | [], _ -> true
            | x :: xs, y :: ys -> x = y && is_prefix (xs, ys)
            | _ :: _, [] -> false
          in
          if not (is_prefix (List.rev got, expected)) then
            fail "updates before the bad header differ");
      true)

let test_peer_update_before_establishment () =
  let a = mk_peer ~local_asn:(asn 64512) ~local_id:"10.0.0.1" ~remote_asn:(asn 2) in
  Peer.connect a;
  (* a is in OpenSent; an UPDATE now is an FSM error. *)
  let raw =
    Wire.encode (Wire.of_update (Update.announce (route ~learned_from:(asn 2) ())))
  in
  (match Peer.feed a raw with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "update accepted before establishment"
  | Error e -> Alcotest.fail e);
  check_bool "torn down" true (Peer.state a = Fsm.Idle);
  (* The FSM-error notification is queued behind the initial OPEN. *)
  let out = Peer.pending_output a in
  check_bool "notification sent" true
    (List.exists
       (fun raw ->
         match Wire.decode raw with
         | Ok (Wire.Notification { code = 5; _ }) -> true
         | _ -> false)
       out)

(* ------------------------------------------------------------------ *)
(* Peering policies and route-server communities                       *)

let rs_asn = asn 6695 (* DE-CIX's route-server AS, for flavor *)

let test_peering_matrices () =
  let m = Peering.bilateral [ (asn 1, asn 2) ] in
  check_bool "pair allowed" true (m ~advertiser:(asn 1) ~receiver:(asn 2));
  check_bool "pair symmetric" true (m ~advertiser:(asn 2) ~receiver:(asn 1));
  check_bool "others denied" false (m ~advertiser:(asn 1) ~receiver:(asn 3));
  let d = Peering.deny_pairs [ (asn 1, asn 3) ] in
  check_bool "denied pair" false (d ~advertiser:(asn 3) ~receiver:(asn 1));
  check_bool "others open" true (d ~advertiser:(asn 1) ~receiver:(asn 2))

let test_peering_communities () =
  let filter = Peering.community_filter ~rs_asn in
  let plain = route () in
  check_bool "untagged exports" true (filter plain ~receiver:(asn 2));
  let no_exp = Peering.tag plain [ Peering.no_export ] in
  check_bool "no-export blocks" false (filter no_exp ~receiver:(asn 2));
  check_bool "blocked_by_no_export" true (Peering.blocked_by_no_export no_exp);
  let skip3 = Peering.tag plain [ Peering.do_not_announce_to (asn 3) ] in
  check_bool "do-not-announce blocks target" false (filter skip3 ~receiver:(asn 3));
  check_bool "do-not-announce passes others" true (filter skip3 ~receiver:(asn 2));
  let only2 = Peering.tag plain [ Peering.announce_only_to ~rs_asn (asn 2) ] in
  check_bool "announce-only passes target" true (filter only2 ~receiver:(asn 2));
  check_bool "announce-only blocks others" false (filter only2 ~receiver:(asn 3))

let test_peering_through_route_server () =
  (* The SDX route server honors the same community conventions a
     conventional route server would. *)
  let server =
    Route_server.create ~route_filter:(Peering.community_filter ~rs_asn) peers
  in
  let announce_tagged prefix communities =
    ignore
      (Route_server.apply server
         (Update.announce
            (Route.make ~prefix ~next_hop:(ip "10.0.0.1")
               ~as_path:[ asn 1; asn 65000 ] ~communities ~learned_from:(asn 1) ())))
  in
  announce_tagged (pfx "20.0.0.0/16") [ Peering.do_not_announce_to (asn 3) ];
  check_bool "2 gets the route" true
    (Option.is_some (Route_server.best server ~receiver:(asn 2) (pfx "20.0.0.0/16")));
  check_bool "3 is filtered" true
    (Route_server.best server ~receiver:(asn 3) (pfx "20.0.0.0/16") = None);
  check_bool "reachability matches" true
    (Route_server.reachable_prefixes server ~receiver:(asn 3) ~via:(asn 1) = []);
  announce_tagged (pfx "21.0.0.0/16") [ Peering.no_export ];
  check_bool "no-export hidden from everyone" true
    (Route_server.best server ~receiver:(asn 2) (pfx "21.0.0.0/16") = None)

(* ------------------------------------------------------------------ *)
(* Route server against the two-snapshot oracle                        *)

(* Five peers, four overlapping prefixes, a random export matrix and the
   community conventions as the route filter.  AS paths may run through
   other peers (loop prevention), and with two local preferences, two
   origins and short paths many ties fall through to MED, advertiser and
   next hop.  The oracle recomputes every receiver's best route from a
   plain model of the candidates before and after each update, and
   diffs the two snapshots. *)
let oracle_peers = List.init 5 (fun i -> asn (i + 1))

let oracle_prefixes =
  [ pfx "20.0.0.0/16"; pfx "20.1.0.0/16"; pfx "20.0.0.0/8"; pfx "21.0.0.0/16" ]

let oracle_rs_asn = asn 65535

let gen_oracle_update =
  let open QCheck2.Gen in
  let* peer = map asn (int_range 1 5) in
  let* prefix = oneofl oracle_prefixes in
  let* withdraw = int_range 0 3 in
  if withdraw = 0 then return (Update.withdraw ~peer prefix)
  else
    let* local_pref = oneofl [ 100; 200 ] in
    let* med = int_range 0 2 in
    let* origin = oneofl [ Route.Igp; Route.Egp ] in
    (* ASes 1-5 are peers, so a tail through them trips loop prevention
       for that receiver; 6 and 7 are outsiders. *)
    let* tail = list_size (int_range 0 2) (map asn (int_range 1 7)) in
    let* nh = int_range 1 3 in
    let* communities =
      list_size (int_range 0 2)
        (frequency
           [
             (1, return Peering.no_export);
             (3, map (fun k -> Peering.do_not_announce_to (asn k)) (int_range 1 5));
             ( 3,
               map
                 (fun k -> Peering.announce_only_to ~rs_asn:oracle_rs_asn (asn k))
                 (int_range 1 5) );
             (2, return (65000, 1));
           ])
    in
    return
      (Update.announce
         (Route.make ~prefix
            ~next_hop:(ip (Printf.sprintf "10.0.0.%d" nh))
            ~as_path:(peer :: tail) ~local_pref ~med ~origin ~communities
            ~learned_from:peer ()))

let prop_route_server_oracle =
  QCheck2.Test.make ~name:"ranked server = two-snapshot oracle"
    ~count:300
    ~print:(fun (_, updates) ->
      String.concat "\n" (List.map (Format.asprintf "%a" Update.pp) updates))
    QCheck2.Gen.(
      pair
        (array_size (return 25) (map (fun k -> k > 0) (int_range 0 4)))
        (list_size (int_range 1 40) gen_oracle_update))
    (fun (matrix, updates) ->
      let export ~advertiser ~receiver =
        matrix.((5 * (Asn.to_int advertiser - 1)) + Asn.to_int receiver - 1)
      in
      let route_filter = Peering.community_filter ~rs_asn:oracle_rs_asn in
      let server = Route_server.create ~export ~route_filter oracle_peers in
      (* The model: each prefix's routes by advertiser. *)
      let model = Hashtbl.create 8 in
      let routes_of prefix =
        Asn.Map.bindings
          (Option.value (Hashtbl.find_opt model prefix) ~default:Asn.Map.empty)
        |> List.map snd
      in
      let exported (r : Route.t) ~receiver =
        (not (Asn.equal r.learned_from receiver))
        && export ~advertiser:r.learned_from ~receiver
        && (not (List.exists (Asn.equal receiver) r.as_path))
        && route_filter r ~receiver
      in
      let exported_routes ~receiver prefix =
        List.filter (exported ~receiver) (routes_of prefix)
      in
      let bests_snapshot prefix =
        List.map
          (fun receiver -> (receiver, Decision.best (exported_routes ~receiver prefix)))
          oracle_peers
      in
      let same a b =
        match (a, b) with
        | None, None -> true
        | Some a, Some b -> Route.equal a b
        | _ -> false
      in
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let check_views () =
        List.iter
          (fun prefix ->
            let routes = routes_of prefix in
            if not (List.equal Route.equal (Route_server.candidates server prefix) routes)
            then fail "candidates of %a not in advertiser order" Prefix.pp prefix;
            if not (List.equal Route.equal (Route_server.ranked server prefix)
                      (Decision.sort routes))
            then fail "ranked %a differs from Decision.sort" Prefix.pp prefix;
            List.iter
              (fun receiver ->
                let mine = exported_routes ~receiver prefix in
                if not (same (Route_server.best server ~receiver prefix) (Decision.best mine))
                then fail "best %a for %a" Prefix.pp prefix Asn.pp receiver;
                if not (List.equal Route.equal
                          (Route_server.feasible server ~receiver prefix)
                          (Decision.sort mine))
                then fail "feasible %a for %a" Prefix.pp prefix Asn.pp receiver;
                if not (same (Route_server.route_from server ~via:receiver prefix)
                          (List.find_opt
                             (fun (r : Route.t) -> Asn.equal r.learned_from receiver)
                             routes))
                then fail "route_from %a via %a" Prefix.pp prefix Asn.pp receiver)
              oracle_peers)
          oracle_prefixes
      in
      let apply update =
        let prefix = Update.prefix update in
        let before = bests_snapshot prefix in
        let change = Route_server.apply server update in
        let m = Option.value (Hashtbl.find_opt model prefix) ~default:Asn.Map.empty in
        (match update with
        | Update.Announce r -> Hashtbl.replace model prefix (Asn.Map.add r.learned_from r m)
        | Update.Withdraw { peer; _ } -> Hashtbl.replace model prefix (Asn.Map.remove peer m));
        let after = bests_snapshot prefix in
        let expected =
          List.filter_map
            (fun ((receiver, b), (_, a)) -> if same b a then None else Some receiver)
            (List.combine before after)
        in
        if not (Prefix.equal change.prefix prefix) then fail "change names another prefix";
        if not (List.equal Asn.equal change.best_changed_for expected) then
          fail "%a: best changed for [%s], oracle says [%s]" Update.pp update
            (String.concat " " (List.map Asn.to_string change.best_changed_for))
            (String.concat " " (List.map Asn.to_string expected))
      in
      List.iter
        (fun update ->
          apply update;
          check_views ();
          match update with
          | Update.Announce r ->
              (* An identical route, announced again, moves nobody. *)
              let again = Route_server.apply server (Update.announce { r with med = r.med }) in
              if again.best_changed_for <> [] then fail "re-announcement moved a best route";
              check_views ()
          | Update.Withdraw _ -> ())
        updates;
      true)

(* ------------------------------------------------------------------ *)
(* The set-based server at large peer counts                           *)

(* 60-140 peers, so receiver sets span one to three cells and cross the
   63- and 126-member boundaries.  The participants list is shuffled, so
   "participants order" is not ASN order.  Export matrices come from
   [Peering.bilateral] or [Peering.deny_pairs], the route filter is the
   community conventions, and AS paths run through other peers.  The
   model settles each receiver on its own: the per-receiver [best_moved]
   loop the server replaced. *)
let gen_large_case =
  let open QCheck2.Gen in
  let* n = int_range 60 140 in
  let* order = shuffle_l (List.init n (fun i -> asn (i + 1))) in
  let* bilateral = bool in
  let pair = pair (map asn (int_range 1 n)) (map asn (int_range 1 n)) in
  let* pairs =
    if bilateral then list_size (int_range n (3 * n)) pair
    else list_size (int_range 0 (n / 2)) pair
  in
  let gen_update =
    let* peer = map asn (int_range 1 n) in
    let* prefix = oneofl oracle_prefixes in
    let* withdraw = int_range 0 3 in
    if withdraw = 0 then return (Update.withdraw ~peer prefix)
    else
      let* local_pref = oneofl [ 100; 200 ] in
      let* med = int_range 0 1 in
      let* tail = list_size (int_range 0 3) (map asn (int_range 1 (n + 5))) in
      let* communities =
        list_size (int_range 0 2)
          (frequency
             [
               (1, return Peering.no_export);
               (3, map (fun k -> Peering.do_not_announce_to (asn k)) (int_range 1 n));
               ( 1,
                 map
                   (fun k -> Peering.announce_only_to ~rs_asn:oracle_rs_asn (asn k))
                   (int_range 1 n) );
             ])
      in
      let* communities = frequency [ (2, return []); (1, return communities) ] in
      return
        (Update.announce
           (Route.make ~prefix ~next_hop:(ip "10.0.0.1") ~as_path:(peer :: tail)
              ~local_pref ~med ~communities ~learned_from:peer ()))
  in
  let* updates = list_size (int_range 1 30) gen_update in
  let* among = list_size (int_range 1 4) (list_size (int_range 0 n) (int_range 0 (n - 1))) in
  return (n, order, bilateral, pairs, updates, among)

let prop_route_server_large =
  QCheck2.Test.make ~name:"set-based server = per-receiver model, 60-140 peers"
    ~count:40
    ~print:(fun (n, _, bilateral, pairs, updates, _) ->
      Printf.sprintf "%d peers, %s %d pairs\n%s" n
        (if bilateral then "bilateral" else "deny")
        (List.length pairs)
        (String.concat "\n" (List.map (Format.asprintf "%a" Update.pp) updates)))
    gen_large_case
    (fun (n, order, bilateral, pairs, updates, among_draws) ->
      let matrix = (if bilateral then Peering.bilateral else Peering.deny_pairs) pairs in
      let allowed = Array.make_matrix (n + 1) (n + 1) false in
      for a = 1 to n do
        for r = 1 to n do
          allowed.(a).(r) <- matrix ~advertiser:(asn a) ~receiver:(asn r)
        done
      done;
      let route_filter = Peering.community_filter ~rs_asn:oracle_rs_asn in
      let server = Route_server.create ~export:matrix ~route_filter order in
      let exported (r : Route.t) ~receiver =
        (not (Asn.equal r.learned_from receiver))
        && allowed.(Asn.to_int r.learned_from).(Asn.to_int receiver)
        && (not (List.exists (Asn.equal receiver) r.as_path))
        && route_filter r ~receiver
      in
      let model = Hashtbl.create 8 in
      let routes_of prefix =
        Option.value (Hashtbl.find_opt model prefix) ~default:Asn.Map.empty
      in
      let same a b =
        match (a, b) with
        | None, None -> true
        | Some a, Some b -> Route.equal a b
        | _ -> false
      in
      let pick other own =
        match (other, own) with
        | None, r | r, None -> r
        | Some o, Some r -> if Decision.prefer r o > 0 then own else other
      in
      let best_moved ~peer ~old_route ~new_route ranked receiver =
        let offered own =
          match own with Some r when exported r ~receiver -> own | _ -> None
        in
        let before = offered old_route and after = offered new_route in
        (not (same before after))
        &&
        let other =
          List.find_opt
            (fun (r : Route.t) ->
              (not (Asn.equal r.learned_from peer)) && exported r ~receiver)
            ranked
        in
        not (same (pick other before) (pick other after))
      in
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let names l = String.concat " " (List.map Asn.to_string l) in
      let check_groups prefix =
        let ranked = Decision.sort (List.map snd (Asn.Map.bindings (routes_of prefix))) in
        List.iter
          (fun draw ->
            let among = Bitset.of_list ~width:n (List.sort_uniq Int.compare draw) in
            let seen = Bitset.create n in
            let groups =
              Route_server.fold_best_by_route server prefix ~among
                (fun route receivers acc ->
                  if Bitset.is_empty receivers then fail "empty group";
                  if not (Bitset.is_empty (Bitset.inter seen receivers)) then
                    fail "groups overlap";
                  Bitset.iter (Bitset.set seen) receivers;
                  Bitset.iter
                    (fun i ->
                      let receiver = List.nth order i in
                      let best =
                        List.find_opt (fun r -> exported r ~receiver) ranked
                      in
                      if not (same best route) then
                        fail "%a: group route is not %a's best" Prefix.pp prefix
                          Asn.pp receiver)
                    receivers;
                  route :: acc)
                []
              |> List.rev
            in
            if not (Bitset.equal seen among) then fail "groups do not cover the receivers";
            let rank = function
              | None -> max_int
              | Some r ->
                  let rec go i = function
                    | [] -> fail "group route not ranked"
                    | q :: rest -> if q == r then i else go (i + 1) rest
                  in
                  go 0 ranked
            in
            let ranks = List.map rank groups in
            if ranks <> List.sort_uniq Int.compare ranks then
              fail "groups not in rank order")
          (List.init n Fun.id :: among_draws)
      in
      List.iter
        (fun update ->
          let peer = Update.peer update and prefix = Update.prefix update in
          let m = routes_of prefix in
          let old_route = Asn.Map.find_opt peer m in
          let m, new_route =
            match update with
            | Update.Announce r -> (Asn.Map.add peer r m, Some r)
            | Update.Withdraw _ -> (Asn.Map.remove peer m, None)
          in
          Hashtbl.replace model prefix m;
          let ranked = Decision.sort (List.map snd (Asn.Map.bindings m)) in
          let expected =
            List.filter (best_moved ~peer ~old_route ~new_route ranked) order
          in
          let change = Route_server.apply server update in
          if not (List.equal Asn.equal change.best_changed_for expected) then
            fail "%a: best changed for [%s], model says [%s]" Update.pp update
              (names change.best_changed_for) (names expected);
          check_groups prefix)
        updates;
      true)

(* ------------------------------------------------------------------ *)
(* RPKI                                                                *)

let test_rpki_validation () =
  let table = Rpki.create () in
  Rpki.add_roa table ~prefix:(pfx "74.125.0.0/16") ~max_length:24 (asn 15169);
  check_int "one roa" 1 (Rpki.roa_count table);
  (* Exact-authorized origination. *)
  check_bool "valid" true
    (Rpki.validate_origin table ~prefix:(pfx "74.125.1.0/24") (asn 15169) = Rpki.Valid);
  (* Wrong AS: covered but unauthorized. *)
  check_bool "invalid origin" true
    (Rpki.validate_origin table ~prefix:(pfx "74.125.1.0/24") (asn 666) = Rpki.Invalid);
  (* Too specific for the ROA's max length. *)
  check_bool "too specific" true
    (Rpki.validate_origin table ~prefix:(pfx "74.125.1.0/25") (asn 15169) = Rpki.Invalid);
  (* Unrelated space: no ROA at all. *)
  check_bool "not found" true
    (Rpki.validate_origin table ~prefix:(pfx "8.8.8.0/24") (asn 15169) = Rpki.Not_found)

let test_rpki_route_validation () =
  let table = Rpki.create () in
  Rpki.add_roa table ~prefix:(pfx "74.125.0.0/16") ~max_length:24 (asn 15169);
  let good =
    route ~prefix:(pfx "74.125.1.0/24") ~as_path:[ asn 3356; asn 15169 ] ()
  in
  let hijack =
    route ~prefix:(pfx "74.125.1.0/24") ~as_path:[ asn 3356; asn 666 ] ()
  in
  check_bool "good route valid" true (Rpki.validate table good = Rpki.Valid);
  check_bool "hijack invalid" true (Rpki.validate table hijack = Rpki.Invalid);
  check_bool "empty path over covered space invalid" true
    (Rpki.validate table (route ~prefix:(pfx "74.125.1.0/24") ~as_path:[] ())
    = Rpki.Invalid)

let test_rpki_multiple_roas () =
  (* Dual-homed prefix: two ROAs authorize two different origins. *)
  let table = Rpki.create () in
  Rpki.add_roa table ~prefix:(pfx "74.125.0.0/16") (asn 15169);
  Rpki.add_roa table ~prefix:(pfx "74.125.0.0/16") (asn 36040);
  check_bool "first origin valid" true
    (Rpki.validate_origin table ~prefix:(pfx "74.125.0.0/16") (asn 15169) = Rpki.Valid);
  check_bool "second origin valid" true
    (Rpki.validate_origin table ~prefix:(pfx "74.125.0.0/16") (asn 36040) = Rpki.Valid);
  (* Default max_length = prefix length: subnets are invalid. *)
  check_bool "subnet invalid" true
    (Rpki.validate_origin table ~prefix:(pfx "74.125.1.0/24") (asn 15169) = Rpki.Invalid)

let test_rpki_bad_max_length () =
  let table = Rpki.create () in
  check_bool "max_length below prefix" true
    (try
       Rpki.add_roa table ~prefix:(pfx "10.0.0.0/16") ~max_length:8 (asn 1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Wire format (RFC 4271)                                              *)

let test_wire_open_roundtrip () =
  let msg =
    Wire.Open { asn = asn 64512; hold_time = 90; bgp_id = ip "10.0.0.1" }
  in
  match Wire.decode (Wire.encode msg) with
  | Ok (Wire.Open o) ->
      check_bool "asn" true (Asn.equal o.asn (asn 64512));
      check_int "hold" 90 o.hold_time;
      check_bool "id" true (Ipv4.equal o.bgp_id (ip "10.0.0.1"))
  | _ -> Alcotest.fail "open roundtrip failed"

let test_wire_keepalive_notification () =
  check_bool "keepalive" true (Wire.decode (Wire.encode Wire.Keepalive) = Ok Wire.Keepalive);
  check_bool "keepalive is 19 bytes" true
    (Bytes.length (Wire.encode Wire.Keepalive) = 19);
  match Wire.decode (Wire.encode (Wire.Notification { code = 6; subcode = 2 })) with
  | Ok (Wire.Notification { code; subcode }) ->
      check_int "code" 6 code;
      check_int "subcode" 2 subcode
  | _ -> Alcotest.fail "notification roundtrip failed"

let test_wire_update_roundtrip () =
  let r =
    Route.make ~prefix:(pfx "20.0.0.0/16") ~next_hop:(ip "10.0.0.1")
      ~as_path:[ asn 100; asn 65000 ] ~local_pref:150 ~med:7
      ~origin:Route.Egp
      ~communities:[ (65535, 65281); (100, 200) ]
      ~learned_from:(asn 100) ()
  in
  let msg = Wire.of_update (Update.announce r) in
  match Wire.decode (Wire.encode msg) with
  | Ok decoded -> (
      match Wire.to_updates ~peer:(asn 100) decoded with
      | [ Update.Announce r' ] ->
          check_bool "prefix" true (Prefix.equal r'.prefix r.prefix);
          check_bool "next hop" true (Ipv4.equal r'.next_hop r.next_hop);
          check_bool "as path" true (r'.as_path = r.as_path);
          check_int "local pref" 150 r'.local_pref;
          check_int "med" 7 r'.med;
          check_bool "origin" true (r'.origin = Route.Egp);
          check_bool "communities" true (r'.communities = r.communities);
          check_bool "learned from session peer" true
            (Asn.equal r'.learned_from (asn 100))
      | _ -> Alcotest.fail "expected one announce")
  | Error e -> Alcotest.fail e.reason

let test_wire_withdraw_roundtrip () =
  let msg = Wire.of_update (Update.withdraw ~peer:(asn 100) (pfx "20.0.0.0/16")) in
  match Wire.decode (Wire.encode msg) with
  | Ok decoded -> (
      match Wire.to_updates ~peer:(asn 100) decoded with
      | [ Update.Withdraw { prefix; peer } ] ->
          check_bool "prefix" true (Prefix.equal prefix (pfx "20.0.0.0/16"));
          check_bool "peer" true (Asn.equal peer (asn 100))
      | _ -> Alcotest.fail "expected one withdraw")
  | Error e -> Alcotest.fail e.reason

let test_wire_as_trans () =
  (* A 4-byte AS number falls back to AS_TRANS on the wire. *)
  let msg =
    Wire.Open { asn = asn 400_000; hold_time = 90; bgp_id = ip "10.0.0.1" }
  in
  match Wire.decode (Wire.encode msg) with
  | Ok (Wire.Open o) -> check_bool "as-trans" true (Asn.equal o.asn Wire.as_trans)
  | _ -> Alcotest.fail "as-trans roundtrip failed"

let test_wire_rejects_garbage () =
  check_bool "bad marker" true
    (Result.is_error (Wire.decode (Bytes.make 19 '\000')));
  check_bool "short" true (Result.is_error (Wire.decode (Bytes.make 5 '\xff')));
  let truncated = Wire.encode Wire.Keepalive in
  Bytes.set_uint8 truncated 17 99 (* lie about the length *);
  check_bool "length mismatch" true (Result.is_error (Wire.decode truncated))

(* Each decode error carries the NOTIFICATION code and subcode RFC 4271
   §6 assigns it.  Offsets in the announcement: ORIGIN's length and
   value at 25-26, AS_PATH's segment type at 30, and the NLRI (a /16:
   a length byte and two address bytes) at the end. *)
let test_wire_error_codes () =
  let announce =
    Wire.encode
      (Wire.of_update
         (Update.announce
            (route ~prefix:(pfx "20.0.0.0/16") ~learned_from:(asn 100) ())))
  in
  let edit base f =
    let b = Bytes.copy base in
    f b;
    b
  in
  let expect name (code, subcode) data =
    match Wire.decode data with
    | Ok _ -> Alcotest.failf "%s: decoded" name
    | Error (e : Wire.error) ->
        Alcotest.(check (pair int int)) name (code, subcode) (e.code, e.subcode)
  in
  let keepalive = Wire.encode Wire.Keepalive in
  let opn =
    Wire.encode (Wire.Open { asn = asn 1; hold_time = 90; bgp_id = ip "10.0.0.1" })
  in
  expect "bad marker" (1, 1) (Bytes.make 19 '\000');
  expect "shorter than a header" (1, 2) (Bytes.make 5 '\xff');
  expect "declared length below 19" (1, 2)
    (edit keepalive (fun b -> Bytes.set_uint16_be b 16 18));
  expect "unknown type" (1, 3) (edit keepalive (fun b -> Bytes.set_uint8 b 18 9));
  expect "OPEN too short for its type" (1, 2)
    (edit keepalive (fun b -> Bytes.set_uint8 b 18 1));
  expect "unsupported version" (2, 1) (edit opn (fun b -> Bytes.set_uint8 b 19 3));
  expect "truncated UPDATE" (3, 1)
    (edit (Bytes.sub announce 0 (Bytes.length announce - 1)) (fun b ->
         Bytes.set_uint16_be b 16 (Bytes.length b)));
  expect "attribute overrun" (3, 1) (edit announce (fun b -> Bytes.set_uint8 b 25 200));
  expect "attribute length mismatch" (3, 5)
    (edit announce (fun b -> Bytes.set_uint8 b 25 2));
  expect "bad ORIGIN" (3, 6) (edit announce (fun b -> Bytes.set_uint8 b 26 7));
  expect "prefix length above 32" (3, 10)
    (edit announce (fun b -> Bytes.set_uint8 b (Bytes.length b - 3) 33));
  expect "AS_PATH segment type" (3, 11) (edit announce (fun b -> Bytes.set_uint8 b 30 1));
  expect "NLRI without NEXT_HOP" (3, 3)
    (Wire.encode (Wire.Update { withdrawn = []; attrs = None; nlri = [ pfx "20.0.0.0/16" ] }))

let gen_wire_route =
  let open QCheck2.Gen in
  let* network = int_range 0 0xFFFF_FFFF in
  let* len = int_range 0 32 in
  let* path_len = int_range 1 5 in
  let* path_start = int_range 1 60_000 in
  let* local_pref = int_range 0 1000 in
  let* med = int_range 0 1000 in
  let* origin = oneofl [ Route.Igp; Route.Egp; Route.Incomplete ] in
  let* n_comm = int_range 0 3 in
  let* nh = int_range 0 0xFFFF_FFFF in
  return
    (Route.make
       ~prefix:(Prefix.make (Ipv4.of_int network) len)
       ~next_hop:(Ipv4.of_int nh)
       ~as_path:(List.init path_len (fun i -> asn (path_start + i)))
       ~local_pref ~med ~origin
       ~communities:(List.init n_comm (fun i -> (i, i * 7)))
       ~learned_from:(asn 77) ())

let prop_wire_update_roundtrip =
  QCheck2.Test.make ~name:"wire update roundtrip preserves the route" ~count:500
    gen_wire_route
    (fun r ->
      match Wire.decode (Wire.encode (Wire.of_update (Update.announce r))) with
      | Ok msg -> (
          match Wire.to_updates ~peer:(asn 77) msg with
          | [ Update.Announce r' ] -> Route.equal r' r
          | _ -> false)
      | Error _ -> false)

let prop_wire_never_crashes =
  QCheck2.Test.make ~name:"wire decode never crashes on noise" ~count:500
    QCheck2.Gen.(string_size (int_range 0 64))
    (fun s ->
      match Wire.decode (Bytes.of_string s) with
      | Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Session FSM                                                         *)

let open_msg = { Wire.asn = asn 1; hold_time = 90; bgp_id = ip "10.0.0.1" }

let drive fsm events = List.iter (fun e -> ignore (Fsm.handle fsm e)) events

let establish fsm =
  drive fsm
    [ Fsm.Manual_start; Fsm.Tcp_connected; Fsm.Open_received open_msg;
      Fsm.Keepalive_received ]

let test_fsm_happy_path () =
  let fsm = Fsm.create () in
  check_bool "starts idle" true (Fsm.state fsm = Fsm.Idle);
  check_bool "start connects" true
    (Fsm.handle fsm Fsm.Manual_start = [ Fsm.Start_connection ]);
  check_bool "tcp sends open" true
    (Fsm.handle fsm Fsm.Tcp_connected = [ Fsm.Send_open ]);
  check_bool "open confirms" true
    (Fsm.handle fsm (Fsm.Open_received open_msg) = [ Fsm.Send_keepalive ]);
  check_bool "keepalive establishes" true (Fsm.handle fsm Fsm.Keepalive_received = []);
  check_bool "established" true (Fsm.state fsm = Fsm.Established);
  check_bool "updates keep it up" true
    (Fsm.handle fsm Fsm.Update_received = [] && Fsm.state fsm = Fsm.Established);
  check_bool "keepalive timer sends keepalive" true
    (Fsm.handle fsm Fsm.Keepalive_timer_expired = [ Fsm.Send_keepalive ])

let test_fsm_hold_timer_flushes () =
  let fsm = Fsm.create () in
  establish fsm;
  let actions = Fsm.handle fsm Fsm.Hold_timer_expired in
  check_bool "notify + drop + flush" true
    (actions
    = [ Fsm.Send_notification { code = 4; subcode = 0 };
        Fsm.Drop_connection; Fsm.Flush_routes ]);
  check_bool "idle after hold expiry" true (Fsm.state fsm = Fsm.Idle)

let test_fsm_notification_teardown () =
  let fsm = Fsm.create () in
  establish fsm;
  let actions = Fsm.handle fsm Fsm.Notification_received in
  check_bool "drops and flushes" true
    (actions = [ Fsm.Drop_connection; Fsm.Flush_routes ]);
  (* Before establishment, no routes to flush. *)
  let fsm2 = Fsm.create () in
  drive fsm2 [ Fsm.Manual_start; Fsm.Tcp_connected ];
  check_bool "no flush pre-establishment" true
    (Fsm.handle fsm2 Fsm.Notification_received = [ Fsm.Drop_connection ])

let test_fsm_connect_retry () =
  let fsm = Fsm.create () in
  ignore (Fsm.handle fsm Fsm.Manual_start);
  ignore (Fsm.handle fsm Fsm.Tcp_failed);
  check_bool "active after tcp failure" true (Fsm.state fsm = Fsm.Active);
  check_bool "retry reconnects" true
    (Fsm.handle fsm Fsm.Connect_retry_expired = [ Fsm.Start_connection ]);
  check_int "retries counted" 2 (Fsm.connect_retries fsm)

let test_fsm_error_handling () =
  let fsm = Fsm.create () in
  drive fsm [ Fsm.Manual_start; Fsm.Tcp_connected ];
  (* A keepalive in OpenSent is an FSM error (code 5). *)
  let actions = Fsm.handle fsm Fsm.Keepalive_received in
  check_bool "fsm error notification" true
    (actions
    = [ Fsm.Send_notification { code = 5; subcode = 0 }; Fsm.Drop_connection ]);
  check_bool "back to idle" true (Fsm.state fsm = Fsm.Idle);
  (* Stray events in Idle are ignored. *)
  check_bool "idle ignores" true (Fsm.handle fsm Fsm.Keepalive_received = [])

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)

let test_session_reset () =
  let s = Session.create ~peer:(asn 1) in
  check_bool "starts idle" true (Session.state s = Session.Idle);
  Session.establish s;
  check_bool "established" true (Session.state s = Session.Established);
  let withdrawals = Session.reset s [ pfx "20.0.0.0/16"; pfx "21.0.0.0/16" ] in
  check_int "withdraw all" 2 (List.length withdrawals);
  check_bool "idle again" true (Session.state s = Session.Idle);
  check_bool "withdraws from peer" true
    (List.for_all (fun u -> Asn.equal (Update.peer u) (asn 1)) withdrawals)

let test_session_table_transfer () =
  let s = Session.create ~peer:(asn 2) in
  let transferred = Session.table_transfer s [ route () ] in
  check_bool "re-established" true (Session.state s = Session.Established);
  check_bool "announces as peer" true
    (match transferred with
    | [ Update.Announce r ] -> Asn.equal r.learned_from (asn 2)
    | _ -> false)

let test_transfer_burst_heuristic () =
  let updates =
    List.init 95 (fun i ->
        Update.announce
          (route ~prefix:(Prefix.make (Ipv4.of_int (0x14000000 + (i * 256))) 24) ()))
  in
  check_bool "full transfer detected" true
    (Session.is_transfer_burst ~updates ~table_size:100);
  check_bool "small burst not a transfer" false
    (Session.is_transfer_burst ~updates:[ List.hd updates ] ~table_size:100);
  check_bool "empty table" false
    (Session.is_transfer_burst ~updates ~table_size:0)

(* ------------------------------------------------------------------ *)
(* Pretty-printers (rendering used by the CLI and logs)                *)

let test_pretty_printers () =
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let r = route ~as_path:[ asn 100; asn 200 ] ~local_pref:150 () in
  let s = Format.asprintf "%a" Route.pp r in
  check_bool "route pp has prefix" true (contains "20.0.0.0/16" s);
  check_bool "route pp has path" true (contains "[100 200]" s);
  check_bool "route pp has pref" true (contains "lp=150" s);
  let s = Format.asprintf "%a" Update.pp (Update.announce r) in
  check_bool "announce pp" true (contains "announce" s);
  let s = Format.asprintf "%a" Update.pp (Update.withdraw ~peer:(asn 1) (pfx "9.0.0.0/8")) in
  check_bool "withdraw pp" true (contains "withdraw 9.0.0.0/8" s);
  let s = Format.asprintf "%a" Wire.pp (Wire.Notification { code = 6; subcode = 1 }) in
  check_bool "wire pp" true (contains "NOTIFICATION 6/1" s);
  check_bool "fsm state pp" true
    (Format.asprintf "%a" Fsm.pp_state Fsm.Open_confirm = "OpenConfirm");
  check_bool "validity pp" true
    (Format.asprintf "%a" Rpki.pp_validity Rpki.Invalid = "invalid");
  check_bool "origin in route pp" true
    (contains "EGP" (Format.asprintf "%a" Route.pp (route ~origin:Route.Egp ())))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "sdx_bgp"
    [
      ( "route",
        [
          Alcotest.test_case "accessors" `Quick test_route_accessors;
          Alcotest.test_case "prepend" `Quick test_route_prepend;
          Alcotest.test_case "with_next_hop" `Quick test_route_with_next_hop;
        ] );
      ( "decision",
        [
          Alcotest.test_case "local pref" `Quick test_decision_local_pref;
          Alcotest.test_case "as path length" `Quick test_decision_as_path_length;
          Alcotest.test_case "origin" `Quick test_decision_origin;
          Alcotest.test_case "med" `Quick test_decision_med;
          Alcotest.test_case "tiebreaks" `Quick test_decision_tiebreaks;
          Alcotest.test_case "priority order" `Quick test_decision_priority_order;
          Alcotest.test_case "sort" `Quick test_decision_sort;
        ]
        @ qsuite [ prop_prefer_antisymmetric; prop_prefer_transitive; prop_best_is_max ]
      );
      ( "route_server",
        [
          Alcotest.test_case "announce" `Quick test_server_basic_announce;
          Alcotest.test_case "best selection" `Quick test_server_best_selection;
          Alcotest.test_case "withdraw" `Quick test_server_withdraw;
          Alcotest.test_case "no-op change" `Quick test_server_noop_change;
          Alcotest.test_case "export policy" `Quick test_server_export_policy;
          Alcotest.test_case "feasible routes" `Quick test_server_feasible;
          Alcotest.test_case "unknown peer" `Quick test_server_unknown_peer;
          Alcotest.test_case "loop prevention" `Quick test_server_loop_prevention;
          Alcotest.test_case "lookup_best" `Quick test_server_lookup_best;
          Alcotest.test_case "fold/prefixes" `Quick test_server_fold_and_prefixes;
          Alcotest.test_case "burst" `Quick test_server_burst;
        ]
        @ qsuite [ prop_route_server_oracle; prop_route_server_large ] );
      ( "as_path_regex",
        [
          Alcotest.test_case "youtube example" `Quick test_as_path_regex;
          Alcotest.test_case "anchors" `Quick test_as_path_regex_anchors;
          Alcotest.test_case "invalid" `Quick test_as_path_regex_invalid;
          Alcotest.test_case "server filter" `Quick test_server_filter_as_path;
          Alcotest.test_case "community filter" `Quick test_server_filter_community;
        ] );
      ( "peer",
        [
          Alcotest.test_case "establishment" `Quick test_peer_establishment;
          Alcotest.test_case "fragmented update exchange" `Quick
            test_peer_update_exchange_fragmented;
          Alcotest.test_case "hold expiry flushes" `Quick test_peer_hold_expiry_flushes;
          Alcotest.test_case "garbage tears down" `Quick test_peer_garbage_tears_down;
          Alcotest.test_case "reconnects after garbage" `Quick
            test_peer_reconnects_after_garbage;
          Alcotest.test_case "update before establishment" `Quick
            test_peer_update_before_establishment;
        ]
        @ qsuite [ prop_peer_framing ] );
      ( "peering",
        [
          Alcotest.test_case "matrices" `Quick test_peering_matrices;
          Alcotest.test_case "communities" `Quick test_peering_communities;
          Alcotest.test_case "through route server" `Quick
            test_peering_through_route_server;
        ] );
      ( "rpki",
        [
          Alcotest.test_case "validation" `Quick test_rpki_validation;
          Alcotest.test_case "route validation" `Quick test_rpki_route_validation;
          Alcotest.test_case "multiple roas" `Quick test_rpki_multiple_roas;
          Alcotest.test_case "bad max length" `Quick test_rpki_bad_max_length;
        ] );
      ( "wire",
        [
          Alcotest.test_case "open roundtrip" `Quick test_wire_open_roundtrip;
          Alcotest.test_case "keepalive/notification" `Quick
            test_wire_keepalive_notification;
          Alcotest.test_case "update roundtrip" `Quick test_wire_update_roundtrip;
          Alcotest.test_case "withdraw roundtrip" `Quick test_wire_withdraw_roundtrip;
          Alcotest.test_case "as-trans" `Quick test_wire_as_trans;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "error codes" `Quick test_wire_error_codes;
        ]
        @ qsuite [ prop_wire_update_roundtrip; prop_wire_never_crashes ] );
      ( "fsm",
        [
          Alcotest.test_case "happy path" `Quick test_fsm_happy_path;
          Alcotest.test_case "hold timer flushes" `Quick test_fsm_hold_timer_flushes;
          Alcotest.test_case "notification teardown" `Quick
            test_fsm_notification_teardown;
          Alcotest.test_case "connect retry" `Quick test_fsm_connect_retry;
          Alcotest.test_case "error handling" `Quick test_fsm_error_handling;
        ] );
      ("pp", [ Alcotest.test_case "pretty printers" `Quick test_pretty_printers ]);
      ( "session",
        [
          Alcotest.test_case "reset" `Quick test_session_reset;
          Alcotest.test_case "table transfer" `Quick test_session_table_transfer;
          Alcotest.test_case "transfer heuristic" `Quick test_transfer_burst_heuristic;
        ] );
    ]
