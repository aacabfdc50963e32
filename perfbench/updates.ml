(* The update path: RFC 4271 UPDATE bytes in through [Gateway.deliver],
   re-advertisements drained, [Runtime.flows] committed to the fabric
   through its two-phase protocol, probe frames walked between phases,
   and (optionally) [Check.runtime_incremental] after every commit.

   The loop is closed and single-threaded: each burst's messages are
   delivered one after another, and the next burst starts only after the
   previous one committed.  The participants' routers (outside the
   system under test) learn the drained re-advertisements with the clock
   paused. *)

open Sdx_net
open Sdx_bgp
open Sdx_core
open Sdx_ixp
module Fabric = Sdx_fabric.Fabric
module Check = Sdx_check.Check

type msg = { from : Asn.t; bytes : bytes }
type burst = { at_s : float; msgs : msg array }

(* Each update of the trace's first [n] bursts is encoded once, before
   timing, as the UPDATE its sender's router would put on the wire. *)
let encode (t : Sut.t) (trace : Trace.t) n =
  Array.of_list
    (List.map
       (fun (b : Trace.burst) ->
         let msgs =
           List.map
             (fun u ->
               let from = Update.peer u in
               let client = t.clients.(Sut.index_of t from) in
               Peer.send_update client u;
               match Peer.pending_output client with
               | [ bytes ] -> { from; bytes }
               | _ -> failwith "router session is not established")
             b.updates
         in
         { at_s = b.at_s; msgs = Array.of_list msgs })
       (List.filteri (fun i _ -> i < n) trace))

(* The AMS-IX profile (Table 1) at 1% of its update volume, spread over
   Table 1's six days so bursts keep its size and inter-arrival
   statistics. *)
let profile = Trace.scale Trace.ams_ix 0.01

let trace_days = 6.0

let trace_for (w : Workload.t) ~seed =
  let rng = Rng.create ~seed:(seed + 7_001) in
  Replay.trace_for_workload rng w ~profile ~duration_s:(trace_days *. 86_400.0)

type acc = {
  mutable bursts : int;
  mutable msgs : int;
  mutable loop_s : float;  (** timed wall time: every burst, clock paused for the routers *)
  mutable burst_s : float list;  (** each burst's timed wall time *)
  mutable deliver_s : float list;  (** per [Gateway.deliver] call *)
  mutable gateway_self_s : float list;  (** deliver minus the runtime's [processing_s] *)
  mutable processing_s : float list;  (** per runtime update *)
  mutable updates : int;
  mutable best_changed : int;
  mutable extra_rules : int;
  mutable burst_commit_s : float list;
  mutable reopt_s : float list;
  mutable flows_s : float list;
  mutable commit_s : float list;  (** per commit, probes excluded *)
  mutable install_s : float list;
  mutable flip_s : float list;
  mutable gc_s : float list;
  mutable install_mods : int;
  mutable flip_mods : int;
  mutable gc_mods : int;
  mutable barriers : int;
  mutable check_s : float list;
  mutable check_fallbacks : int;
  mutable rules_checked : int;
  mutable readvert_msgs : int;
  mutable readvert_bytes : int;
  mutable probes : int;
  mutable attempted : int;
  mutable failures : (string * int) list;
  mutable first_finding : string option;
  mutable minor_words : float;
}

let create_acc () =
  {
    bursts = 0;
    msgs = 0;
    loop_s = 0.0;
    burst_s = [];
    deliver_s = [];
    gateway_self_s = [];
    processing_s = [];
    updates = 0;
    best_changed = 0;
    extra_rules = 0;
    burst_commit_s = [];
    reopt_s = [];
    flows_s = [];
    commit_s = [];
    install_s = [];
    flip_s = [];
    gc_s = [];
    install_mods = 0;
    flip_mods = 0;
    gc_mods = 0;
    barriers = 0;
    check_s = [];
    check_fallbacks = 0;
    rules_checked = 0;
    readvert_msgs = 0;
    readvert_bytes = 0;
    probes = 0;
    attempted = 0;
    failures = [];
    first_finding = None;
    minor_words = 0.0;
  }

let fail acc kind =
  acc.failures <-
    (kind, 1 + Option.value (List.assoc_opt kind acc.failures) ~default:0)
    :: List.remove_assoc kind acc.failures

let failed acc = List.fold_left (fun n (_, k) -> n + k) 0 acc.failures
let mods acc = acc.install_mods + acc.flip_mods + acc.gc_mods

type config = {
  verified : bool;  (** [Check.runtime_incremental] after every commit *)
  protocol : [ `Two_phase | `Unsafe_single_phase ];
}

let default_config = { verified = false; protocol = `Two_phase }

(* [Replay.run]'s background-stage rule: a trace gap this long with
   fast-path rules stacked re-optimizes before the next burst. *)
let quiet_gap_s = 60.0

type loop = {
  sut : Sut.t;
  cfg : config;
  sp : Spans.t;
  acc : acc;
  probes : Packet.t array;
  reopts0 : int;
  mutable last_at : float;
  mutable next : int;  (** index of the next burst to run *)
}

let create_loop ?(cfg = default_config) ~sp ~probes (sut : Sut.t) =
  {
    sut;
    cfg;
    sp;
    acc = create_acc ();
    probes;
    reopts0 = Runtime.reoptimize_count sut.rt;
    last_at = neg_infinity;
    next = 0;
  }

(* Background-stage runs since the loop began: quiet-gap re-optimizations
   and those the runtime triggers itself (priority ceiling, VNH pressure,
   base/fast-path band overlap). *)
let reopts l = Runtime.reoptimize_count l.sut.rt - l.reopts0

(* Probe frames walked through the live fabric inside each commit phase
   window; any walk that meets a mixed ruleset is a failure. *)
let probe l =
  let fab = l.sut.fab in
  Array.iter
    (fun f ->
      let before = Fabric.mixed_version_packets fab in
      ignore (Fabric.process fab f);
      l.acc.probes <- l.acc.probes + 1;
      l.acc.attempted <- l.acc.attempted + 1;
      if Fabric.mixed_version_packets fab > before then fail l.acc "mixed_version_probe")
    l.probes

let commit l =
  let acc = l.acc and sp = l.sp in
  let flows, flows_s =
    Common.time (fun () ->
        Spans.with_span sp "runtime.flows" (fun () -> Runtime.flows l.sut.rt))
  in
  acc.flows_s <- flows_s :: acc.flows_s;
  let mark = ref 0.0 and probe_s = ref 0.0 in
  let on_phase phase =
    let now = Common.now () in
    let d = now -. !mark in
    let name =
      match phase with
      | Fabric.Installed _ ->
          acc.install_s <- d :: acc.install_s;
          "fabric.install"
      | Fabric.Flipped _ ->
          acc.flip_s <- d :: acc.flip_s;
          "fabric.flip"
      | Fabric.Collected _ ->
          acc.gc_s <- d :: acc.gc_s;
          "fabric.gc"
      | Fabric.Synced_member _ -> "fabric.sync_member"
    in
    Spans.record sp name ~start:!mark ~stop:now;
    let (), s = Common.time (fun () -> Spans.with_span sp "fabric.probe" (fun () -> probe l)) in
    probe_s := !probe_s +. s;
    mark := Common.now ()
  in
  let stats, commit_s =
    Common.time (fun () ->
        Spans.with_span sp "fabric.commit" (fun () ->
            mark := Common.now ();
            Fabric.commit ~protocol:l.cfg.protocol ~on_phase l.sut.fab flows))
  in
  acc.commit_s <- (commit_s -. !probe_s) :: acc.commit_s;
  acc.install_mods <- acc.install_mods + stats.install_mods;
  acc.flip_mods <- acc.flip_mods + stats.flip_mods;
  acc.gc_mods <- acc.gc_mods + stats.gc_mods;
  acc.barriers <- acc.barriers + stats.barriers

let check l =
  let acc = l.acc in
  if Runtime.last_dirty l.sut.rt = None then acc.check_fallbacks <- acc.check_fallbacks + 1;
  let report, s =
    Common.time (fun () ->
        Spans.with_span l.sp "check.incremental" (fun () ->
            Check.runtime_incremental l.sut.rt))
  in
  acc.check_s <- s :: acc.check_s;
  acc.rules_checked <- acc.rules_checked + report.rules_checked;
  acc.attempted <- acc.attempted + 1;
  match Check.errors report with
  | [] -> ()
  | f :: _ ->
      fail acc "check_error";
      if acc.first_finding = None then
        acc.first_finding <- Some (Format.asprintf "%a" Check.pp_finding f)

let deliver l (m : msg) =
  let acc = l.acc in
  let t0 = Common.now () in
  let r =
    Spans.with_span l.sp "gateway.deliver"
      ~attrs:(function
        | Some (Ok stats) ->
            [
              ( "processing_s",
                List.fold_left (fun s (u : Runtime.update_stats) -> s +. u.processing_s) 0.0 stats );
            ]
        | _ -> [])
      (fun () -> Gateway.deliver l.sut.gw ~from:m.from m.bytes)
  in
  let dt = Common.now () -. t0 in
  acc.msgs <- acc.msgs + 1;
  acc.attempted <- acc.attempted + 1;
  acc.deliver_s <- dt :: acc.deliver_s;
  match r with
  | Error _ -> fail acc "deliver_error"
  | Ok [] ->
      (* Every message carries one update: none means the session
         dropped it (e.g. it is no longer established). *)
      fail acc "update_dropped"
  | Ok stats ->
      let processing =
        List.fold_left
          (fun s (u : Runtime.update_stats) ->
            acc.updates <- acc.updates + 1;
            if u.best_changed then acc.best_changed <- acc.best_changed + 1;
            acc.extra_rules <- acc.extra_rules + u.extra_rules;
            acc.processing_s <- u.processing_s :: acc.processing_s;
            s +. u.processing_s)
          0.0 stats
      in
      acc.gateway_self_s <- (dt -. processing) :: acc.gateway_self_s

(* The routers decode what they were sent and keep the last word per
   prefix; each surviving announcement's next hop must resolve through
   the controller's ARP responder (earlier announcements of a prefix
   were superseded on the same session, so their VNHs may rightly be
   retired already). *)
let learn l drained =
  let acc = l.acc in
  let arp = Runtime.arp l.sut.rt in
  Array.iteri
    (fun i msgs ->
      let latest = Hashtbl.create 8 in
      List.iter
        (fun b ->
          acc.readvert_msgs <- acc.readvert_msgs + 1;
          acc.readvert_bytes <- acc.readvert_bytes + Bytes.length b;
          acc.attempted <- acc.attempted + 1;
          match Peer.feed l.sut.clients.(i) b with
          | Error _ -> fail acc "readvert_decode"
          | Ok us -> List.iter (fun u -> Hashtbl.replace latest (Update.prefix u) u) us)
        msgs;
      Hashtbl.iter
        (fun _ u ->
          match u with
          | Update.Announce (r : Route.t) ->
              if Sdx_arp.Responder.query arp r.next_hop = None then
                fail acc "unresolved_next_hop"
          | Update.Withdraw _ -> ())
        latest)
    drained

let run_burst l (b : burst) =
  let acc = l.acc and sp = l.sp and rt = l.sut.rt in
  Spans.new_trace sp;
  let words0 = Gc.minor_words () in
  let t_burst = Common.now () in
  let drained =
    Spans.with_span sp "burst" (fun () ->
        if b.at_s -. l.last_at >= quiet_gap_s && Runtime.extra_rule_count rt > 0
        then begin
          let _, s =
            Common.time (fun () ->
                Spans.with_span sp "runtime.reoptimize" (fun () -> Runtime.reoptimize rt))
          in
          acc.reopt_s <- s :: acc.reopt_s;
          commit l;
          if l.cfg.verified then check l
        end;
        l.last_at <- b.at_s;
        let t_first = Common.now () in
        Array.iter (deliver l) b.msgs;
        let drained =
          Spans.with_span sp "gateway.outbox" (fun () ->
              Array.map (Gateway.outbox l.sut.gw) l.sut.asns)
        in
        commit l;
        if l.cfg.verified then check l;
        acc.burst_commit_s <- (Common.now () -. t_first) :: acc.burst_commit_s;
        drained)
  in
  let burst_s = Common.now () -. t_burst in
  acc.loop_s <- acc.loop_s +. burst_s;
  acc.burst_s <- burst_s :: acc.burst_s;
  acc.minor_words <- acc.minor_words +. (Gc.minor_words () -. words0);
  acc.bursts <- acc.bursts + 1;
  learn l drained

(* Bursts in trace order, resuming where the last call stopped, until
   [upto] of them have run in all. *)
let run l (bursts : burst array) ~upto =
  while l.next < upto do
    run_burst l bursts.(l.next);
    l.next <- l.next + 1
  done

(* Outside timing: the live runtime must forward exactly like a
   from-scratch compile of the same route-server state. *)
let divergences (t : Sut.t) =
  let reference = Runtime.create (Runtime.config t.rt) in
  Replay.forwarding_divergences t.rt ~reference
