(* sdxd: inspect the SDX controller pipeline from the command line.

     dune exec bin/sdxd.exe -- demo                 # Figure 1 walkthrough
     dune exec bin/sdxd.exe -- compile -n 50 -x 500 # compile a workload
     dune exec bin/sdxd.exe -- trace --ixp de-cix   # Table 1 trace stats
     dune exec bin/sdxd.exe -- --help *)

open Sdx_net
open Sdx_bgp
open Sdx_core

(* ------------------------------------------------------------------ *)
(* Observability reports (tentpole of the sdx_obs layer): every
   subcommand that builds a runtime can dump the process-wide metrics
   registry and the recent control-plane span trace, as text and/or
   JSON.  During [replay], SIGUSR1 dumps the same report to stderr at
   any time, and --stats-every does so on a timer — the always-on
   surface the §5 evaluation numbers come from. *)

let report_text ppf =
  let tracer = Sdx_obs.Trace.default in
  let spans = Sdx_obs.Trace.spans tracer in
  Format.fprintf ppf "== metrics ==@.%a@." Sdx_obs.Registry.pp
    Sdx_obs.Registry.default;
  Format.fprintf ppf "== recent spans (%d retained, %d dropped) ==@."
    (List.length spans)
    (Sdx_obs.Trace.dropped tracer);
  if spans <> [] then Format.fprintf ppf "%a@." Sdx_obs.Trace.pp_jsonl tracer

let report_json () =
  Printf.sprintf "{\"metrics\":%s,\"spans\":[%s]}\n"
    (Sdx_obs.Registry.json_array_of_samples
       (Sdx_obs.Registry.samples Sdx_obs.Registry.default))
    (String.concat ","
       (List.map Sdx_obs.Trace.json_of_span
          (Sdx_obs.Trace.spans Sdx_obs.Trace.default)))

(* Materialize the runtime's ruleset in an OpenFlow table so the report
   reflects flow-mod counts and table occupancy, not just the abstract
   classifier. *)
let sync_flow_table runtime =
  let table = Sdx_openflow.Table.create () in
  Sdx_openflow.Table.install_all table (Runtime.flows runtime);
  table

let emit_stats ~stats ~stats_json runtime_opt =
  if stats || stats_json <> None then begin
    Option.iter (fun rt -> ignore (sync_flow_table rt)) runtime_opt;
    if stats then report_text Format.std_formatter;
    match stats_json with
    | None -> ()
    | Some "-" -> print_string (report_json ())
    | Some path ->
        let oc = open_out path in
        output_string oc (report_json ());
        close_out oc;
        Format.printf "wrote stats report to %s@." path
  end

(* ------------------------------------------------------------------ *)
(* demo: the Figure 1 scenario, end to end                             *)

let run_demo verbose obs_stats stats_json =
  let mac = Mac.of_string and ip = Ipv4.of_string and pfx = Prefix.of_string in
  let asn_a = Asn.of_int 100
  and asn_b = Asn.of_int 200
  and asn_c = Asn.of_int 300 in
  let a =
    Participant.make ~asn:asn_a
      ~ports:[ (mac "aa:aa:aa:aa:aa:01", ip "172.0.0.1") ]
      ~outbound:
        [
          Ppolicy.fwd (Sdx_policy.Pred.dst_port 80) (Ppolicy.Peer asn_b);
          Ppolicy.fwd (Sdx_policy.Pred.dst_port 443) (Ppolicy.Peer asn_c);
        ]
      ()
  in
  let b =
    Participant.make ~asn:asn_b
      ~ports:
        [ (mac "bb:bb:bb:bb:bb:01", ip "172.0.0.2");
          (mac "bb:bb:bb:bb:bb:02", ip "172.0.0.3") ]
      ~inbound:
        [
          Ppolicy.fwd (Sdx_policy.Pred.src_ip (pfx "0.0.0.0/1")) (Ppolicy.Phys 0);
          Ppolicy.fwd (Sdx_policy.Pred.src_ip (pfx "128.0.0.0/1")) (Ppolicy.Phys 1);
        ]
      ()
  in
  let c = Participant.make ~asn:asn_c ~ports:[ (mac "cc:cc:cc:cc:cc:01", ip "172.0.0.4") ] () in
  let config = Config.make [ a; b; c ] in
  List.iter
    (fun (peer, p, path) ->
      ignore (Config.announce config ~peer ~port:0 ~as_path:path (pfx p)))
    [
      (asn_b, "20.0.1.0/24", [ asn_b; Asn.of_int 65001; Asn.of_int 65002 ]);
      (asn_b, "20.0.3.0/24", [ asn_b; Asn.of_int 65001 ]);
      (asn_c, "20.0.1.0/24", [ asn_c; Asn.of_int 65001 ]);
      (asn_c, "20.0.3.0/24", [ asn_c; Asn.of_int 65001; Asn.of_int 65002 ]);
      (asn_c, "20.0.4.0/24", [ asn_c; Asn.of_int 65001 ]);
    ];
  let runtime = Runtime.create config in
  Format.printf "Participants:@.";
  List.iter (fun p -> Format.printf "%a@.@." Participant.pp p) (Config.participants config);
  Format.printf "Prefix groups:@.";
  List.iter
    (fun (g : Compile.group) ->
      Format.printf "  group %d: vnh=%a vmac=%a {%s}@." g.id Ipv4.pp g.vnh Mac.pp
        g.vmac
        (String.concat ", " (List.map Prefix.to_string g.prefixes)))
    (Compile.groups (Runtime.compiled runtime));
  Format.printf "@.ARP responder (%d bindings):@."
    (Sdx_arp.Responder.size (Runtime.arp runtime));
  List.iter
    (fun (ip, mac) -> Format.printf "  %a is-at %a@." Ipv4.pp ip Mac.pp mac)
    (Sdx_arp.Responder.bindings (Runtime.arp runtime));
  let stats = Compile.stats (Runtime.compiled runtime) in
  Format.printf
    "@.Compiled %d rules for %d groups in %.3f ms (%d sequential \
     compositions, %d memo hits).@."
    stats.rule_count stats.group_count (1000.0 *. stats.elapsed_s) stats.seq_ops
    stats.memo_hits;
  if verbose then begin
    Format.printf "@.Flow table:@.%a@." Sdx_policy.Classifier.pp
      (Runtime.classifier runtime)
  end;
  emit_stats ~stats:obs_stats ~stats_json (Some runtime)

(* ------------------------------------------------------------------ *)
(* compile: a synthetic workload through the pipeline                  *)

let run_compile participants prefixes seed obs_stats stats_json =
  let rng = Sdx_ixp.Rng.create ~seed in
  let w = Sdx_ixp.Workload.build rng ~participants ~prefixes () in
  let runtime = Runtime.create w.Sdx_ixp.Workload.config in
  let stats = Compile.stats (Runtime.compiled runtime) in
  Format.printf "participants:       %d@." participants;
  Format.printf "prefixes:           %d@." prefixes;
  Format.printf "prefix groups:      %d@." stats.group_count;
  Format.printf "flow rules:         %d@." stats.rule_count;
  Format.printf "compile time:       %.3f s@." stats.elapsed_s;
  Format.printf "compose time:       %.3f s@." stats.compose_s;
  Format.printf "seq compositions:   %d@." stats.seq_ops;
  Format.printf "memo hits:          %d@." stats.memo_hits;
  Format.printf "fdd nodes:          %d@." stats.fdd_nodes;
  Format.printf "fdd memo hits:      %d@." stats.fdd_memo_hits;
  Format.printf "fdd unique table:   %d@." stats.fdd_table_size;
  let policied =
    List.length
      (List.filter
         (fun (p : Participant.t) -> p.outbound <> [] || p.inbound <> [])
         (Config.participants w.Sdx_ixp.Workload.config))
  in
  Format.printf "policied ASes:      %d@." policied;
  emit_stats ~stats:obs_stats ~stats_json (Some runtime)

(* ------------------------------------------------------------------ *)
(* load: run a scenario file                                           *)

(* Probe syntax: AS100:10.0.0.1:20.0.1.9:80 (sender, src, dst, dstport). *)
let parse_probe s =
  match String.split_on_char ':' s with
  | [ asn_s; src; dst; dport ] -> (
      let asn_digits =
        if String.length asn_s > 2 && String.sub asn_s 0 2 = "AS" then
          String.sub asn_s 2 (String.length asn_s - 2)
        else asn_s
      in
      match
        ( int_of_string_opt asn_digits,
          Ipv4.of_string_opt src,
          Ipv4.of_string_opt dst,
          int_of_string_opt dport )
      with
      | Some a, Some src, Some dst, Some dport ->
          (Asn.of_int a, src, dst, dport)
      | _ -> failwith (Printf.sprintf "bad probe %S" s))
  | _ -> failwith (Printf.sprintf "bad probe %S (want AS:src:dst:dport)" s)

let run_load path probes verbose obs_stats stats_json =
  match Scenario.load path with
  | Error e -> Format.printf "%a@." Scenario.pp_error e
  | Ok config ->
      let runtime = Runtime.create config in
      let stats = Compile.stats (Runtime.compiled runtime) in
      Format.printf "%s: %d participants, %d ports, %d prefixes@." path
        (List.length (Config.participants config))
        (Config.port_count config)
        (Route_server.prefix_count (Config.server config));
      Format.printf "compiled: %d prefix groups, %d rules, %.3f ms@."
        stats.group_count stats.rule_count (1000.0 *. stats.elapsed_s);
      if verbose then
        Format.printf "@.%a@." Sdx_policy.Classifier.pp (Runtime.classifier runtime);
      if probes <> [] then begin
        let net = Sdx_fabric.Network.create runtime in
        Format.printf "@.probes:@.";
        List.iter
          (fun probe ->
            let sender, src_ip, dst_ip, dst_port = parse_probe probe in
            let packet = Packet.make ~src_ip ~dst_ip ~dst_port () in
            match Sdx_fabric.Network.inject net ~from:sender packet with
            | [] -> Format.printf "  %-36s -> dropped@." probe
            | ds ->
                List.iter
                  (fun (d : Sdx_fabric.Network.delivery) ->
                    Format.printf "  %-36s -> %s port %d@." probe
                      (Asn.to_string d.receiver) d.receiver_port)
                  ds)
          probes
      end;
      emit_stats ~stats:obs_stats ~stats_json (Some runtime)

(* ------------------------------------------------------------------ *)
(* trace: Table 1 statistics                                           *)

let run_trace ixp scale seed =
  let profile =
    match String.lowercase_ascii ixp with
    | "ams-ix" | "ams" -> Sdx_ixp.Trace.ams_ix
    | "de-cix" | "dec" -> Sdx_ixp.Trace.de_cix
    | "linx" -> Sdx_ixp.Trace.linx
    | other -> failwith (Printf.sprintf "unknown IXP %S (ams-ix|de-cix|linx)" other)
  in
  let rng = Sdx_ixp.Rng.create ~seed in
  let scaled = Sdx_ixp.Trace.scale profile scale in
  let trace = Sdx_ixp.Trace.generate rng scaled ~duration_s:(6.0 *. 86400.0) () in
  Format.printf "%s (scale %g):@.%a@." profile.name scale Sdx_ixp.Trace.pp_stats
    (Sdx_ixp.Trace.stats scaled trace)

(* ------------------------------------------------------------------ *)
(* replay: churn through the two-stage runtime                         *)

let run_replay participants prefixes seed scale verify obs_stats stats_json
    stats_every =
  let rng = Sdx_ixp.Rng.create ~seed in
  let w = Sdx_ixp.Workload.build rng ~participants ~prefixes () in
  (* With --verify, every compilation the runtime performs during the
     replay (initial, re-optimizations, fast-path installs) is statically
     checked; an error finding aborts the replay. *)
  if verify then Sdx_check.Check.install_runtime_hook ~fail:true ();
  let runtime = Sdx_ixp.Workload.runtime w in
  let profile = Sdx_ixp.Trace.scale Sdx_ixp.Trace.ams_ix scale in
  let trace =
    Sdx_ixp.Replay.trace_for_workload rng w ~profile ~duration_s:86_400.0
  in
  (* Signal-triggered dump while the replay runs: `kill -USR1 $(pidof
     sdxd)` prints the live report to stderr without disturbing the
     run.  --stats-every does the same on a wall-clock timer. *)
  let dump _ = report_text Format.err_formatter in
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle dump);
  (match stats_every with
  | None -> ()
  | Some period ->
      Sys.set_signal Sys.sigalrm (Sys.Signal_handle dump);
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_value = period; it_interval = period }));
  let result = Sdx_ixp.Replay.run runtime trace in
  (match stats_every with
  | None -> ()
  | Some _ ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_value = 0.0; it_interval = 0.0 }));
  if verify then Sdx_check.Check.uninstall_runtime_hook ();
  Format.printf "%a@." Sdx_ixp.Replay.pp_result result;
  emit_stats ~stats:obs_stats ~stats_json (Some runtime)

(* ------------------------------------------------------------------ *)
(* check: static verification of compiled state                        *)

module Check = Sdx_check.Check

(* Spread the exchange's 1-based switch ports round-robin over a line of
   [switches] fabric switches and commit the runtime's flows to it, so
   the loop pass walks real trunks and transit copies. *)
let line_fabric runtime ~switches =
  let nports = Config.port_count (Runtime.config runtime) in
  if switches <= 1 || nports = 0 then None
  else
    let fabric =
      Sdx_fabric.Fabric.create
        (Sdx_fabric.Topology.create
           ~switches:(List.init switches (fun i -> i + 1))
           ~links:(List.init (switches - 1) (fun i -> (i + 1, i + 2)))
           ~port_home:(List.init nports (fun i -> (i + 1, (i mod switches) + 1))))
    in
    ignore (Sdx_fabric.Fabric.commit fabric (Runtime.flows runtime));
    Some fabric

let check_subject name runtime ~switches ~passes ~verbose =
  let fabric = line_fabric runtime ~switches in
  let report = Check.runtime ?fabric ~passes runtime in
  Format.printf "%s: %s@." name (Check.summary report);
  let shown =
    if verbose then report.Check.findings
    else
      List.filter
        (fun (f : Check.finding) -> f.Check.severity <> Check.Info)
        report.Check.findings
  in
  List.iter (fun f -> Format.printf "  %a@." Check.pp_finding f) shown;
  (report, Check.has_errors report)

(* Machine-readable findings dump, witness packets included — CI uploads
   this as an artifact when the check job fails so the offending packet
   survives the ephemeral runner. *)
let write_witnesses path reports =
  let buf = Buffer.create 4096 in
  let esc s = String.concat "\\\"" (String.split_on_char '"' s) in
  Buffer.add_string buf "[\n";
  let first = ref true in
  List.iter
    (fun (name, (report : Check.report)) ->
      List.iter
        (fun (f : Check.finding) ->
          if not !first then Buffer.add_string buf ",\n";
          first := false;
          Buffer.add_string buf
            (Printf.sprintf
               "  {\"subject\": \"%s\", \"pass\": \"%s\", \"code\": \"%s\", \
                \"severity\": \"%s\", \"detail\": \"%s\", \"rules\": [%s], \
                \"witness\": %s}"
               (esc name) f.Check.pass f.Check.code
               (Check.severity_label f.Check.severity)
               (esc f.Check.detail)
               (String.concat ", " (List.map string_of_int f.Check.rules))
               (match f.Check.witness with
               | None -> "null"
               | Some pkt ->
                   Printf.sprintf "\"%s\""
                     (esc (Format.asprintf "%a" Sdx_net.Packet.pp pkt)))))
        report.Check.findings)
    reports;
  Buffer.add_string buf "\n]\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "wrote %d finding(s) to %s@."
    (List.fold_left
       (fun n (_, (r : Check.report)) -> n + List.length r.Check.findings)
       0 reports)
    path

let run_check paths workload participants prefixes seed switches passes verbose
    witness_out obs_stats stats_json =
  let passes = if passes = [] then Check.all_passes else passes in
  List.iter
    (fun p ->
      if not (List.mem p Check.all_passes) then
        failwith
          (Printf.sprintf "unknown pass %S (have: %s)" p
             (String.concat ", " Check.all_passes)))
    passes;
  if paths = [] && not workload then
    failwith "nothing to check: give scenario files and/or --workload";
  let failed = ref false in
  let reports = ref [] in
  List.iter
    (fun path ->
      match Scenario.load path with
      | Error e ->
          Format.printf "%s: %a@." path Scenario.pp_error e;
          failed := true
      | Ok config ->
          let runtime = Runtime.create config in
          let report, errs = check_subject path runtime ~switches ~passes ~verbose in
          reports := (path, report) :: !reports;
          if errs then failed := true)
    paths;
  if workload then begin
    let rng = Sdx_ixp.Rng.create ~seed in
    let w = Sdx_ixp.Workload.build rng ~participants ~prefixes () in
    let runtime = Sdx_ixp.Workload.runtime w in
    let name =
      Printf.sprintf "workload(n=%d,x=%d,seed=%d)" participants prefixes seed
    in
    let report, errs = check_subject name runtime ~switches ~passes ~verbose in
    reports := (name, report) :: !reports;
    if errs then failed := true
  end;
  Option.iter (fun path -> write_witnesses path (List.rev !reports)) witness_out;
  emit_stats ~stats:obs_stats ~stats_json None;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)

open Cmdliner

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let stats_t =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the observability report (metrics registry + recent spans) \
           after the run.")

let stats_json_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:"Write the observability report as JSON to $(docv) (- for stdout).")

let demo_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Also dump the flow table.")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Walk through the paper's Figure 1 scenario.")
    Term.(const run_demo $ verbose $ stats_t $ stats_json_t)

let compile_cmd =
  let participants =
    Arg.(value & opt int 50 & info [ "n"; "participants" ] ~doc:"Participant count.")
  in
  let prefixes =
    Arg.(value & opt int 500 & info [ "x"; "prefixes" ] ~doc:"Prefix count.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a synthetic 6.1 workload and print statistics.")
    Term.(
      const run_compile $ participants $ prefixes $ seed_t $ stats_t $ stats_json_t)

let load_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Scenario file.")
  in
  let probes =
    Arg.(
      value & opt_all string []
      & info [ "probe" ] ~docv:"AS:src:dst:dport"
          ~doc:"Inject a probe packet and report where it lands (repeatable).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Also dump the flow table.")
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Load a scenario file, compile it, and optionally probe it.")
    Term.(
      const (fun path probes verbose stats stats_json ->
          run_load path probes verbose stats stats_json)
      $ path $ probes $ verbose $ stats_t $ stats_json_t)

let trace_cmd =
  let ixp =
    Arg.(value & opt string "ams-ix" & info [ "ixp" ] ~doc:"ams-ix, de-cix, or linx.")
  in
  let scale =
    Arg.(value & opt float 0.01 & info [ "scale" ] ~doc:"Trace scale factor.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Generate a Table 1 BGP update trace and print its statistics.")
    Term.(const (fun ixp scale seed -> run_trace ixp scale seed) $ ixp $ scale $ seed_t)

let replay_cmd =
  let participants =
    Arg.(value & opt int 100 & info [ "n"; "participants" ] ~doc:"Participant count.")
  in
  let prefixes =
    Arg.(value & opt int 1000 & info [ "x"; "prefixes" ] ~doc:"Prefix count.")
  in
  let scale =
    Arg.(value & opt float 0.001 & info [ "scale" ] ~doc:"Trace scale factor.")
  in
  let stats_every =
    Arg.(
      value
      & opt (some float) None
      & info [ "stats-every" ] ~docv:"SECONDS"
          ~doc:"Dump the observability report to stderr every $(docv) while \
                replaying (SIGUSR1 triggers the same dump on demand).")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Statically verify every compilation during the replay (initial, \
             re-optimizations, fast-path installs); abort on an error finding.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a day of AMS-IX-like churn through the two-stage runtime.")
    Term.(
      const (fun n x seed scale verify stats stats_json every ->
          run_replay n x seed scale verify stats stats_json every)
      $ participants $ prefixes $ seed_t $ scale $ verify $ stats_t
      $ stats_json_t $ stats_every)

let check_cmd =
  let paths =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Scenario files to verify.")
  in
  let workload =
    Arg.(
      value & flag
      & info [ "workload" ]
          ~doc:"Also verify a synthetic 6.1 workload (sized by -n/-x/--seed).")
  in
  let participants =
    Arg.(value & opt int 50 & info [ "n"; "participants" ] ~doc:"Workload participant count.")
  in
  let prefixes =
    Arg.(value & opt int 500 & info [ "x"; "prefixes" ] ~doc:"Workload prefix count.")
  in
  let switches =
    Arg.(
      value & opt int 2
      & info [ "switches" ]
          ~doc:
            "Commit the flows to a line of this many fabric switches and \
             walk their tables in the loop pass (1 disables the fabric walk).")
  in
  let passes =
    Arg.(
      value & opt_all string []
      & info [ "pass" ] ~docv:"PASS"
          ~doc:"Run only this pass (repeatable): isolation, bgp, loops, lints.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Also print info-level findings.")
  in
  let witness_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "witness-out" ] ~docv:"FILE"
          ~doc:
            "Write every finding — witness packets included — as JSON to \
             $(docv); CI uploads it as an artifact on failure.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify compiled state: isolation, BGP consistency, \
          loop freedom, and classifier lints.  Exits non-zero if any \
          error-severity finding exists.")
    Term.(
      const (fun paths workload n x seed switches passes verbose witness_out
                 stats stats_json ->
          run_check paths workload n x seed switches passes verbose witness_out
            stats stats_json)
      $ paths $ workload $ participants $ prefixes $ seed_t $ switches $ passes
      $ verbose $ witness_out $ stats_t $ stats_json_t)

(* ------------------------------------------------------------------ *)
(* race: the sdx_race sanitizer suite                                  *)

let run_race domains report_out =
  let domains =
    match domains with Some d -> max 1 d | None -> Parallel.default_domains ()
  in
  let items = Sdx_check.Race_suite.run_all ~domains () in
  List.iter
    (fun (it : Sdx_check.Race_suite.item) ->
      Format.printf "%s %-32s %s@."
        (if it.item_ok then "ok  " else "FAIL")
        it.item_name it.item_detail;
      if not it.item_ok then
        List.iter
          (fun r ->
            Format.printf "     %s@." (Sdx_sanitize.Sync.report_summary r))
          it.item_reports)
    items;
  let ok = Sdx_check.Race_suite.all_ok items in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Sdx_check.Race_suite.items_json items);
      output_char oc '\n';
      close_out oc;
      Format.printf "race report written to %s@." path)
    report_out;
  Format.printf "%d/%d passed@." 
    (List.length (List.filter (fun (i : Sdx_check.Race_suite.item) -> i.item_ok) items))
    (List.length items);
  if not ok then exit 1

let race_cmd =
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Real domains for the Record-mode pool smoke (default: the \
             host's recommended count, or the SDX_DOMAINS variable).")
  in
  let report_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the suite outcome (per-item status plus full race \
             reports with allocation/access sites) as JSON to $(docv); CI \
             uploads it as an artifact on failure.")
  in
  Cmd.v
    (Cmd.info "race"
       ~doc:
         "Run the sdx_race suite: seeded-race mutations under the Record \
          detector, an instrumented smoke of the real pool, and the \
          exhaustive DPOR interleaving models of the RCU table and pool \
          shutdown protocols.  Exits non-zero if any seeded \
          race goes undetected or any clean protocol is flagged.")
    Term.(const (fun d r -> run_race d r) $ domains $ report_out)

(* ------------------------------------------------------------------ *)
(* lint: source-level concurrency lint                                 *)

let run_lint dirs =
  let dirs = if dirs = [] then [ "lib"; "bin"; "bench"; "test" ] else dirs in
  let present = List.filter Sys.file_exists dirs in
  let findings = Sdx_check.Lint.scan_dirs present in
  List.iter
    (fun f -> Format.printf "%a@." Sdx_check.Lint.pp_finding f)
    findings;
  Format.printf "%d finding(s) over %s@." (List.length findings)
    (String.concat " " present);
  if findings <> [] then exit 1

let lint_cmd =
  let dirs =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"DIR"
          ~doc:"Directories to lint (default: lib bin bench test).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Concurrency lint: reject raw Mutex/Condition/Atomic/Domain usage \
          outside lib/sanitize and flag mutable fields in Sync-using \
          modules that lack an sdx-owner: ownership annotation.  Exits \
          non-zero on any finding.")
    Term.(const run_lint $ dirs)

let () =
  let info = Cmd.info "sdxd" ~doc:"SDX controller inspection tool." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            demo_cmd;
            compile_cmd;
            load_cmd;
            trace_cmd;
            replay_cmd;
            check_cmd;
            race_cmd;
            lint_cmd;
          ]))
