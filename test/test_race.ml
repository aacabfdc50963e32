(* Tests for the sdx_race sanitizer.

   Four layers, mirroring the detector's architecture:

   - vector-clock algebra (qcheck): join is an associative, commutative,
     idempotent least upper bound for the leq partial order; tick is
     strictly monotone; concurrent is the symmetric complement of
     comparability.  These laws are what make the happens-before
     relation a sound race criterion.

   - interleaving explorer: same seed => identical visit order
     (first_trace, executions, pruned); the sleep-set reduction
     (dpor:true) finds exactly the races full enumeration finds; clean
     scenarios verify exhaustively, racy ones are flagged.

   - seeded mutations: every buggy variant in Race_suite.seeded is
     caught under Record mode (real domains) AND under the explorer,
     with the expected report kind and the tracked location's name in
     the report; every clean variant stays silent.

   - concurrency lint: raw primitives flagged, shimmed uses and
     comment/string mentions not, mutable fields in Sync-using modules
     require an sdx-owner: annotation. *)

module Sync = Sdx_sanitize.Sync
module Vclock = Sdx_sanitize.Vclock
module Explore = Sdx_sanitize.Explore
module Lint = Sdx_check.Lint
module Race_suite = Sdx_check.Race_suite

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains_sub hay needle =
  let ln = String.length needle and lh = String.length hay in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Vector-clock algebra                                               *)

let gen_clock =
  QCheck2.Gen.(
    map Vclock.of_array (array_size (int_range 0 4) (int_range 0 5)))

let gen_pair = QCheck2.Gen.pair gen_clock gen_clock
let gen_triple = QCheck2.Gen.triple gen_clock gen_clock gen_clock

let prop_join_assoc =
  QCheck2.Test.make ~name:"vclock: join associative" ~count:1000 gen_triple
    (fun (a, b, c) ->
      Vclock.equal (Vclock.join a (Vclock.join b c))
        (Vclock.join (Vclock.join a b) c))

let prop_join_comm =
  QCheck2.Test.make ~name:"vclock: join commutative" ~count:1000 gen_pair
    (fun (a, b) -> Vclock.equal (Vclock.join a b) (Vclock.join b a))

let prop_join_idem =
  QCheck2.Test.make ~name:"vclock: join idempotent" ~count:1000 gen_clock
    (fun a -> Vclock.equal (Vclock.join a a) a)

let prop_leq_refl =
  QCheck2.Test.make ~name:"vclock: leq reflexive" ~count:1000 gen_clock
    (fun a -> Vclock.leq a a)

let prop_leq_antisym =
  QCheck2.Test.make ~name:"vclock: leq antisymmetric" ~count:1000 gen_pair
    (fun (a, b) ->
      (not (Vclock.leq a b && Vclock.leq b a)) || Vclock.equal a b)

let prop_leq_trans =
  QCheck2.Test.make ~name:"vclock: leq transitive" ~count:1000 gen_triple
    (fun (a, b, c) ->
      (* condition the generated triple into a chain via join so the
         premise is non-vacuous on every sample *)
      let b = Vclock.join a b in
      let c = Vclock.join b c in
      Vclock.leq a b && Vclock.leq b c && Vclock.leq a c)

let prop_join_is_lub =
  QCheck2.Test.make ~name:"vclock: join is least upper bound" ~count:1000
    gen_triple (fun (a, b, c) ->
      let j = Vclock.join a b in
      Vclock.leq a j && Vclock.leq b j
      && Bool.equal (Vclock.leq j c) (Vclock.leq a c && Vclock.leq b c))

let prop_tick_monotone =
  QCheck2.Test.make ~name:"vclock: tick strictly monotone" ~count:1000
    QCheck2.Gen.(pair gen_clock (int_range 0 5))
    (fun (a, i) ->
      let a' = Vclock.tick a i in
      Vclock.leq a a'
      && (not (Vclock.leq a' a))
      && Vclock.get a' i = Vclock.get a i + 1)

let prop_concurrent =
  QCheck2.Test.make ~name:"vclock: concurrent = incomparable, symmetric"
    ~count:1000 gen_pair (fun (a, b) ->
      Bool.equal (Vclock.concurrent a b)
        ((not (Vclock.leq a b)) && not (Vclock.leq b a))
      && Bool.equal (Vclock.concurrent a b) (Vclock.concurrent b a))

let prop_of_array_get =
  QCheck2.Test.make ~name:"vclock: of_array/get roundtrip" ~count:1000
    QCheck2.Gen.(array_size (int_range 0 4) (int_range 0 5))
    (fun arr ->
      let c = Vclock.of_array arr in
      Array.for_all (fun ok -> ok)
        (Array.mapi (fun i v -> Vclock.get c i = v) arr)
      && Vclock.get c (Array.length arr) = 0)

let test_empty_bottom () =
  check_bool "empty <= empty" true Vclock.(leq empty empty);
  check_bool "empty <= any" true Vclock.(leq empty (of_array [| 3; 0; 7 |]));
  check_bool "normalized trailing zeros" true
    Vclock.(equal (of_array [| 1; 2; 0; 0 |]) (of_array [| 1; 2 |]))

(* ------------------------------------------------------------------ *)
(* Explorer: determinism, DPOR cross-validation, verdicts             *)

(* Two writers bump a shared location; [locked] guards the write with a
   mutex (race-free), otherwise the writes are concurrent (write-write
   race in some interleaving). *)
let counter_scenario ~locked () =
  let c = Sync.Tracked.create "test_race.counter" in
  let m = Sync.Mutex.create ~name:"test_race.counter.m" () in
  let work () =
    if locked then Sync.Mutex.protect m (fun () -> Sync.Tracked.write c)
    else Sync.Tracked.write c
  in
  let d1 = Sync.Domain.spawn ~name:"w1" work in
  let d2 = Sync.Domain.spawn ~name:"w2" work in
  Sync.Domain.join d1;
  Sync.Domain.join d2

let race_keys (r : Explore.result) =
  List.sort_uniq String.compare
    (List.map (fun (x : Sync.report) -> x.r_kind ^ "|" ^ x.r_location) r.races)

let test_explorer_clean () =
  let r = Explore.run (counter_scenario ~locked:true) in
  check_bool "locked counter ok" true (Explore.ok r);
  check_int "no races" 0 (List.length r.races);
  check_bool "exhaustive" false r.truncated;
  check_bool "explored several interleavings" true (r.executions > 1)

let test_explorer_racy () =
  let r = Explore.run (counter_scenario ~locked:false) in
  check_bool "unlocked counter not ok" false (Explore.ok r);
  check_bool "race found" true (r.races <> []);
  check_int "no deadlocks" 0 r.deadlocks;
  check_bool "exhaustive" false r.truncated;
  check_bool "race names the location" true
    (List.exists
       (fun (x : Sync.report) -> contains_sub x.r_location "test_race.counter")
       r.races);
  check_bool "race carries an interleaving" true
    (List.exists (fun (x : Sync.report) -> x.r_trace <> []) r.races)

let test_explorer_deterministic () =
  let run () = Explore.run ~seed:7 (counter_scenario ~locked:false) in
  let r1 = run () and r2 = run () in
  check_int "executions stable" r1.executions r2.executions;
  check_int "pruned stable" r1.pruned r2.pruned;
  check_int "max_depth stable" r1.max_depth r2.max_depth;
  Alcotest.(check (list string))
    "first trace identical" r1.first_trace r2.first_trace

let test_explorer_seed_independent () =
  (* the seed permutes visit order, never the verdict or the race set *)
  let a = Explore.run ~seed:0 (counter_scenario ~locked:false) in
  let b = Explore.run ~seed:11 (counter_scenario ~locked:false) in
  Alcotest.(check (list string)) "same race set" (race_keys a) (race_keys b);
  check_bool "same verdict" (Explore.ok a) (Explore.ok b);
  let c = Explore.run ~seed:0 (counter_scenario ~locked:true) in
  let d = Explore.run ~seed:11 (counter_scenario ~locked:true) in
  check_bool "clean under any seed" true (Explore.ok c && Explore.ok d)

let test_dpor_cross_check () =
  (* sleep-set reduction must agree with full enumeration on both the
     race set and the verdict, while never exploring more *)
  List.iter
    (fun locked ->
      let red = Explore.run ~dpor:true (counter_scenario ~locked) in
      let full = Explore.run ~dpor:false (counter_scenario ~locked) in
      Alcotest.(check (list string))
        "dpor finds the same races" (race_keys full) (race_keys red);
      check_bool "same verdict" (Explore.ok full) (Explore.ok red);
      check_bool "reduction explores no more than full" true
        (red.executions <= full.executions);
      check_bool "full enumeration prunes nothing" true (full.pruned = 0))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Seeded mutations: Record mode (real domains) and the explorer      *)

let test_seeded_record () =
  List.iter
    (fun (sc : Race_suite.scenario) ->
      let buggy = Race_suite.run_record (sc.sc_run ~bug:true) in
      check_bool
        (sc.sc_name ^ ": buggy variant flagged under Record")
        true
        (List.exists
           (fun (r : Sync.report) -> contains_sub r.r_kind sc.sc_kind)
           buggy);
      check_bool
        (sc.sc_name ^ ": report names a race_suite location")
        true
        (List.exists
           (fun (r : Sync.report) -> contains_sub r.r_location "race_suite")
           buggy);
      let clean = Race_suite.run_record (sc.sc_run ~bug:false) in
      check_int (sc.sc_name ^ ": clean variant silent") 0 (List.length clean))
    Race_suite.seeded

let test_seeded_explorer () =
  List.iter
    (fun (sc : Race_suite.scenario) ->
      let buggy = Explore.run (sc.sc_run ~bug:true) in
      check_bool
        (sc.sc_name ^ ": explorer flags the buggy variant")
        true
        (List.exists
           (fun (r : Sync.report) -> contains_sub r.r_kind sc.sc_kind)
           buggy.races);
      check_bool (sc.sc_name ^ ": buggy exploration exhaustive") false
        buggy.truncated;
      let clean = Explore.run (sc.sc_run ~bug:false) in
      check_bool (sc.sc_name ^ ": explorer passes the clean variant") true
        (Explore.ok clean))
    Race_suite.seeded

(* A mutex created while the detector is off and then used while it
   records.  Locks made before recording begins exist in production
   (the metrics registry's is made at module initialisation), so the
   detector gives such a mutex its state on first recorded use; without
   that, the lock would order nothing and two domains writing the
   location it guards would be reported as racing. *)
let test_off_then_record () =
  let prev = Sync.mode () in
  Sync.set_mode Sync.Off;
  let m = Sync.Mutex.create ~name:"test.off_then_record" () in
  let races =
    Fun.protect
      ~finally:(fun () -> Sync.set_mode prev)
      (fun () ->
        Race_suite.run_record (fun () ->
            let guarded = Sync.Tracked.create "test.off_then_record.guarded" in
            let work () =
              for _ = 1 to 100 do
                Sync.Mutex.protect m (fun () -> Sync.Tracked.write guarded)
              done
            in
            let other = Sync.Domain.spawn ~name:"recorder" work in
            work ();
            Sync.Domain.join other))
  in
  List.iter (fun r -> Printf.printf "  %s\n" (Sync.report_summary r)) races;
  check_int "no race reports" 0 (List.length races)

let test_model_scenarios () =
  check_bool "rcu snapshot model race-free" true
    (Explore.ok (Explore.run Race_suite.model_rcu_snapshot));
  let misuse = Explore.run Race_suite.model_rcu_misuse in
  check_bool "second snapshot builder violates the owner contract" true
    (List.exists
       (fun (r : Sync.report) ->
         contains_sub r.r_kind "single-writer violation")
       misuse.races)

(* ------------------------------------------------------------------ *)
(* Concurrency lint                                                   *)

let scan src = Lint.scan_source ~path:"synthetic.ml" src

let rules fs =
  List.sort_uniq String.compare (List.map (fun f -> f.Lint.lint_rule) fs)

let test_lint_raw_primitive () =
  let fs = scan "let () = Mutex.lock m\n" in
  Alcotest.(check (list string))
    "raw Mutex flagged" [ "raw-primitive" ] (rules fs);
  check_int "on the right line" 1 (List.hd fs).Lint.lint_line;
  check_int "raw Domain.spawn flagged" 1
    (List.length (scan "let d = Domain.spawn f\n"));
  check_int "raw Atomic flagged" 1
    (List.length (scan "let a = Atomic.make 0\n"))

let test_lint_shim_allowed () =
  check_int "Sync.Mutex passes" 0
    (List.length (scan "let () = Sync.Mutex.lock m\n"));
  check_int "Sdx_sanitize.Sync.Atomic passes" 0
    (List.length (scan "let a = Sdx_sanitize.Sync.Atomic.make 0\n"));
  check_int "recommended_domain_count allowed" 0
    (List.length (scan "let n = Domain.recommended_domain_count ()\n"));
  check_int "RMutex is not Mutex" 0
    (List.length (scan "let () = RMutex.lock m\n"))

let test_lint_comments_strings () =
  check_int "comment mention passes" 0
    (List.length (scan "(* grab Mutex.lock first *)\nlet x = 1\n"));
  check_int "string mention passes" 0
    (List.length (scan "let s = \"Atomic.get is racy\"\n"));
  check_int "quoted-string mention passes" 0
    (List.length (scan "let s = {|Domain.spawn|}\n"));
  check_int "nested comment passes" 0
    (List.length (scan "(* outer (* Condition.wait *) still out *)\n"))

let test_lint_unowned_mutable () =
  let unowned =
    "module Sync = Sdx_sanitize.Sync\ntype t = { mutable x : int }\n"
  in
  Alcotest.(check (list string))
    "mutable without owner flagged" [ "unowned-mutable" ]
    (rules (scan unowned));
  let owned =
    "module Sync = Sdx_sanitize.Sync\n\
     type t = {\n\
    \  (* sdx-owner: guarded by [m] *)\n\
    \  mutable x : int;\n\
     }\n"
  in
  check_int "annotated mutable passes" 0 (List.length (scan owned));
  let doc_above =
    "module Sync = Sdx_sanitize.Sync\n\
     (* sdx-owner: coordinator only *)\n\
     type t = { mutable x : int }\n"
  in
  check_int "annotation attached above the item passes" 0
    (List.length (scan doc_above));
  let no_sync = "type t = { mutable x : int }\n" in
  check_int "sequential module exempt" 0 (List.length (scan no_sync));
  let mli =
    "module Sync = Sdx_sanitize.Sync\ntype t = { mutable x : int }\n"
  in
  check_int "mli exempt from the mutable rule" 0
    (List.length (Lint.scan_source ~path:"synthetic.mli" mli))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "race"
    [
      ( "vclock",
        qsuite
          [
            prop_join_assoc;
            prop_join_comm;
            prop_join_idem;
            prop_leq_refl;
            prop_leq_antisym;
            prop_leq_trans;
            prop_join_is_lub;
            prop_tick_monotone;
            prop_concurrent;
            prop_of_array_get;
          ]
        @ [ Alcotest.test_case "empty is bottom" `Quick test_empty_bottom ] );
      ( "explorer",
        [
          Alcotest.test_case "clean scenario verifies" `Quick
            test_explorer_clean;
          Alcotest.test_case "racy scenario flagged" `Quick test_explorer_racy;
          Alcotest.test_case "same seed, same exploration" `Quick
            test_explorer_deterministic;
          Alcotest.test_case "seed never changes the verdict" `Quick
            test_explorer_seed_independent;
          Alcotest.test_case "dpor = full enumeration" `Quick
            test_dpor_cross_check;
        ] );
      ( "seeded",
        [
          Alcotest.test_case "record mode catches every mutation" `Quick
            test_seeded_record;
          Alcotest.test_case "explorer catches every mutation" `Quick
            test_seeded_explorer;
          Alcotest.test_case "real-structure models" `Quick
            test_model_scenarios;
          Alcotest.test_case "mutex created off, used recording" `Quick
            test_off_then_record;
        ] );
      ( "lint",
        [
          Alcotest.test_case "raw primitives flagged" `Quick
            test_lint_raw_primitive;
          Alcotest.test_case "shimmed uses pass" `Quick test_lint_shim_allowed;
          Alcotest.test_case "comments and strings ignored" `Quick
            test_lint_comments_strings;
          Alcotest.test_case "unowned mutable fields" `Quick
            test_lint_unowned_mutable;
        ] );
    ]
