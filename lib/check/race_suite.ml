(* Seeded-race mutation suite and model-checking scenarios for the
   sdx_race sanitizer.

   Two families:

   - {!seeded}: four miniature synchronization protocols (RCU
     publish/acquire, a lock-guarded counter, the table's single-writer
     snapshot counter, an epoch-validated cache), each with a [bug]
     switch that removes exactly one happens-before edge.  The clean
     variant must be silent under the detector; the buggy variant must
     be flagged.  Detection is deterministic in Record mode: the vector
     clocks of the two accesses are unordered regardless of how the
     real domains happen to interleave, so the report does not depend
     on timing.  Each scenario is also explorer-safe (finite, no spin
     loops), which lets the test suite cross-check DPOR against full
     enumeration on them.

   - the [model_*] scenarios: the real [Openflow.Table]'s RCU snapshot
     path driven under {!Explore.run} at unit-test scale, exhaustively
     over every interleaving.  [model_rcu_snapshot] must come back
     {!Explore.ok}; [model_rcu_misuse] breaks the single-writer contract
     on purpose and must be caught.

   Everything here creates its structures inside the scenario body, so
   they are tracked in whichever mode the caller enabled. *)

module Sync = Sdx_sanitize.Sync
module Explore = Sdx_sanitize.Explore
open Sdx_openflow

(* ------------------------------------------------------------------ *)
(* Seeded scenarios                                                    *)

type scenario = {
  sc_name : string;
  sc_bug : string;  (* what the buggy variant breaks *)
  sc_kind : string;  (* substring expected in the buggy report kind *)
  sc_run : bug:bool -> unit -> unit;
}

(* RCU publish/acquire (Table.invalidate_snapshot / snapshot): a writer
   prepares state and publishes it through an atomic; the reader must
   acquire through the same atomic before touching the state.  The bug
   skips the acquire — the stale-snapshot read that a forgotten
   [invalidate_snapshot] would permit. *)
let rcu_publish ~bug () =
  let state = Sync.Tracked.create "race_suite.rcu.state" in
  let published = Sync.Atomic.make ~name:"race_suite.rcu.flag" false in
  let writer =
    Sync.Domain.spawn ~name:"rcu-writer" (fun () ->
        Sync.Tracked.write state;
        Sync.Atomic.set published true)
  in
  if bug then Sync.Tracked.read state
  else if Sync.Atomic.get published then Sync.Tracked.read state;
  Sync.Domain.join writer

(* A lock-guarded counter: two threads write a shared counter under a
   mutex, the detector's plainest happens-before edge.  The bug drops
   one side's lock. *)
let pool_counter ~bug () =
  let m = Sync.Mutex.create ~name:"race_suite.pool.batch" () in
  let remaining = Sync.Tracked.create "race_suite.pool.remaining" in
  let work ~skip_lock =
    if skip_lock then Sync.Tracked.write remaining
    else begin
      Sync.Mutex.lock m;
      Sync.Tracked.write remaining;
      Sync.Mutex.unlock m
    end
  in
  let worker =
    Sync.Domain.spawn ~name:"pool-worker" (fun () -> work ~skip_lock:bug)
  in
  work ~skip_lock:false;
  Sync.Domain.join worker

(* The table's snapshot counter: single-writer by contract, encoded as
   an [Owner] assertion.  The bug bumps it from the reader thread. *)
let snapshot_counter ~bug () =
  let owner = Sync.Owner.create "race_suite.table.writer" in
  let snapshots = Sync.Tracked.create "race_suite.table.snapshots" in
  let bump () =
    Sync.Owner.assert_owner owner;
    Sync.Tracked.write snapshots
  in
  let reader =
    Sync.Domain.spawn ~name:"table-reader" (fun () -> if bug then bump ())
  in
  bump ();
  Sync.Domain.join reader

(* An epoch-validated cache: engine state is rebuilt and the new epoch
   released through an atomic; a worker must re-acquire the epoch before
   touching engine state.  The bug reuses the stale cached view without
   the epoch check. *)
let dls_epoch ~bug () =
  let engine = Sync.Tracked.create "race_suite.dls.engine" in
  let epoch = Sync.Atomic.make ~name:"race_suite.dls.epoch" 0 in
  let worker =
    Sync.Domain.spawn ~name:"dls-worker" (fun () ->
        if bug then Sync.Tracked.read engine
        else if Sync.Atomic.get epoch = 1 then Sync.Tracked.read engine)
  in
  Sync.Tracked.write engine;
  Sync.Atomic.set epoch 1;
  Sync.Domain.join worker

let seeded =
  [
    {
      sc_name = "rcu-publish";
      sc_bug = "reader skips the snapshot acquire (missed invalidate)";
      sc_kind = "race";
      sc_run = rcu_publish;
    };
    {
      sc_name = "pool-counter";
      sc_bug = "one worker skips the batch mutex";
      sc_kind = "write-write race";
      sc_run = pool_counter;
    };
    {
      sc_name = "snapshot-counter";
      sc_bug = "reader bumps the single-writer snapshots counter";
      sc_kind = "single-writer violation";
      sc_run = snapshot_counter;
    };
    {
      sc_name = "dls-epoch";
      sc_bug = "worker reuses a stale epoch's engine view";
      sc_kind = "race";
      sc_run = dls_epoch;
    };
  ]

(* Run [f] under Record mode with real domains and hand back what the
   detector saw.  Restores the previous mode. *)
let run_record f =
  let prev = Sync.mode () in
  Sync.set_mode Record;
  Fun.protect
    ~finally:(fun () -> Sync.set_mode prev)
    (fun () ->
      f ();
      let rs = Sync.races () in
      Sync.clear_races ();
      rs)

(* ------------------------------------------------------------------ *)
(* Model scenarios over the real structures                            *)

let mk_flow ?(priority = 100) ?(pattern = Sdx_policy.Pattern.all) port =
  Flow.make ~priority ~pattern ~actions:[ Sdx_policy.Mods.make ~port () ]

(* RCU snapshot vs. concurrent mutation: the writer keeps installing and
   re-snapshotting while a reader probes whatever snapshot is currently
   published.  Correct under every interleaving: the reader only touches
   frozen state, and only the writer ever builds. *)
let model_rcu_snapshot () =
  let t = Table.create () in
  Table.install t (mk_flow ~priority:10 1);
  ignore (Table.snapshot t);
  let pkt = Sdx_net.Packet.make ~dst_port:80 () in
  let reader =
    Sync.Domain.spawn ~name:"snap-reader" (fun () ->
        match Table.published_snapshot t with
        | Some s -> ignore (Table.searcher s pkt)
        | None -> ())
  in
  Table.install t
    (mk_flow ~priority:20 ~pattern:(Sdx_policy.Pattern.make ~dst_port:80 ()) 2);
  let s = Table.snapshot t in
  Sync.Domain.join reader;
  if Table.snapshot_size s <> 2 then failwith "model_rcu_snapshot: bad snapshot"

(* Same shape, but the reader violates the single-writer contract by
   calling [snapshot] (which may build) instead of
   [published_snapshot].  In the interleavings where the writer's
   mutation has retired the snapshot, the reader hits the build path and
   the Owner assertion must fire. *)
let model_rcu_misuse () =
  let t = Table.create () in
  Table.install t (mk_flow ~priority:10 1);
  ignore (Table.snapshot t);
  let reader =
    Sync.Domain.spawn ~name:"bad-reader" (fun () -> ignore (Table.snapshot t))
  in
  Table.install t (mk_flow ~priority:20 2);
  ignore (Table.snapshot t);
  Sync.Domain.join reader

(* ------------------------------------------------------------------ *)
(* The full suite, as run by [sdxd race] and CI                        *)

type item = {
  item_name : string;
  item_ok : bool;
  item_detail : string;
  item_reports : Sync.report list;
}

let contains_sub hay needle =
  let ln = String.length needle and lh = String.length hay in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let seeded_items () =
  List.concat_map
    (fun sc ->
      let clean = run_record (sc.sc_run ~bug:false) in
      let buggy = run_record (sc.sc_run ~bug:true) in
      let caught =
        List.exists (fun r -> contains_sub r.Sync.r_kind sc.sc_kind) buggy
      in
      [
        {
          item_name = Printf.sprintf "seeded/%s/clean" sc.sc_name;
          item_ok = clean = [];
          item_detail =
            (if clean = [] then "no race on the correct protocol"
             else Printf.sprintf "%d spurious report(s)" (List.length clean));
          item_reports = clean;
        };
        {
          item_name = Printf.sprintf "seeded/%s/buggy" sc.sc_name;
          item_ok = caught;
          item_detail =
            (if caught then
               Printf.sprintf "caught: %s" (List.hd buggy).Sync.r_kind
             else
               Printf.sprintf "MISSED (%s; wanted kind ~ %S, got %d report(s))"
                 sc.sc_bug sc.sc_kind (List.length buggy));
          item_reports = buggy;
        };
      ])
    seeded

let explorer_item name ~expect_race scenario =
  let r = Explore.run scenario in
  let detail = Format.asprintf "%a" Explore.pp_summary r in
  let ok =
    if expect_race then
      r.Explore.races <> [] && r.Explore.deadlocks = 0 && r.Explore.errors = []
      && not r.Explore.truncated
    else Explore.ok r
  in
  {
    item_name = "model/" ^ name;
    item_ok = ok;
    item_detail = detail;
    item_reports = r.Explore.races;
  }

let model_items () =
  [
    explorer_item "rcu-snapshot" ~expect_race:false model_rcu_snapshot;
    explorer_item "rcu-misuse" ~expect_race:true model_rcu_misuse;
  ]
  @ List.map
      (fun sc ->
        explorer_item
          (Printf.sprintf "seeded-%s" sc.sc_name)
          ~expect_race:true
          (sc.sc_run ~bug:true))
      seeded

let run_all () = seeded_items () @ model_items ()

let all_ok items = List.for_all (fun i -> i.item_ok) items

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let items_json items =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"items\":[";
  List.iteri
    (fun i it ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"ok\":%b,\"detail\":\"%s\",\"reports\":%s}"
           (json_escape it.item_name) it.item_ok
           (json_escape it.item_detail)
           (Sync.reports_json it.item_reports)))
    items;
  Buffer.add_string buf (Printf.sprintf "],\"ok\":%b}" (all_ok items));
  Buffer.contents buf
