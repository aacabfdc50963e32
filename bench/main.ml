(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table 1, Figures 5-10), plus an ablation of the §4.3
   compilation optimizations and Bechamel micro-benchmarks.

     dune exec bench/main.exe              # everything, laptop scale
     dune exec bench/main.exe -- fig6      # one experiment
     dune exec bench/main.exe -- --help

   Absolute numbers differ from the paper (a simulator instead of a
   hardware testbed, OCaml instead of Python); the shapes are what is
   reproduced.  EXPERIMENTS.md records paper-vs-measured per figure. *)

open Sdx_net
open Sdx_ixp

let section title = Format.printf "@.==== %s ====@." title
let note fmt = Format.printf ("  " ^^ fmt ^^ "@.")

(* A JSON report's output channel, opened before the run it reports on:
   an unwritable path fails at once instead of after the experiment. *)
let open_report out =
  try open_out out
  with Sys_error msg ->
    prerr_endline ("bench: cannot write report: " ^ msg);
    exit 1

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

let run_table1 ~seed ~scale =
  section "Table 1: IXP datasets (synthetic traces, scaled)";
  note
    "paper: AMS-IX 11.2M updates / 9.88%% prefixes updated; DE-CIX 30.9M / \
     13.64%%; LINX 16.7M / 12.67%%";
  note "trace scale factor: %g (counts below are scaled; fractions are not)"
    scale;
  let week = 6.0 *. 24.0 *. 3600.0 in
  Format.printf "  %-8s %11s %9s %9s %14s %15s@." "IXP" "peers/total"
    "prefixes" "updates" "pfx updated" "<=3-pfx bursts";
  List.iter
    (fun (profile : Trace.profile) ->
      let rng = Rng.create ~seed in
      let scaled = Trace.scale profile scale in
      let trace = Trace.generate rng scaled ~duration_s:week () in
      let stats = Trace.stats scaled trace in
      Format.printf "  %-8s %7d/%3d %9d %9d %13.2f%% %14.1f%%@."
        profile.name profile.collector_peers profile.total_peers
        scaled.prefixes stats.total_updates
        (100.0 *. stats.updated_fraction)
        (100.0 *. stats.bursts_at_most_3))
    [ Trace.ams_ix; Trace.de_cix; Trace.linx ]

(* ------------------------------------------------------------------ *)
(* Figure 5                                                            *)

let print_timeline samples sinks ~every =
  Format.printf "  %8s" "t(s)";
  List.iter (fun s -> Format.printf " %18s" s) sinks;
  Format.printf "@.";
  List.iter
    (fun (s : Sdx_fabric.Deployment.sample) ->
      if s.time mod every = 0 then begin
        Format.printf "  %8d" s.time;
        List.iter
          (fun sink ->
            Format.printf " %13.1f Mbps" (Sdx_fabric.Deployment.rate s sink))
          sinks;
        Format.printf "@."
      end)
    samples

let run_fig5a () =
  section "Figure 5a: application-specific peering (live experiment)";
  note
    "paper: port-80 traffic shifts to AS B at t=565s (policy), all traffic \
     back via AS A at t=1253s (withdrawal)";
  let scenario = Sdx_fabric.Scenarios.Fig5a.scenario () in
  let samples = Sdx_fabric.Deployment.run ~sample_every:1 scenario in
  print_timeline samples [ "AS-A"; "AS-B" ] ~every:150;
  let at t =
    List.find (fun (s : Sdx_fabric.Deployment.sample) -> s.time = t) samples
  in
  let a t = Sdx_fabric.Deployment.rate (at t) "AS-A"
  and b t = Sdx_fabric.Deployment.rate (at t) "AS-B" in
  note
    "check: before policy A=%.0f B=%.0f; after policy A=%.0f B=%.0f; after \
     withdrawal A=%.0f B=%.0f"
    (a 300) (b 300) (a 900) (b 900) (a 1500) (b 1500)

let run_fig5b () =
  section "Figure 5b: wide-area load balance (live experiment)";
  note
    "paper: at t=246s the tenant's policy shifts source 204.57.0.67 to AWS \
     instance #2";
  let scenario = Sdx_fabric.Scenarios.Fig5b.scenario () in
  let samples = Sdx_fabric.Deployment.run ~sample_every:1 scenario in
  print_timeline samples [ "AWS Instance #1"; "AWS Instance #2" ] ~every:60;
  let at t =
    List.find (fun (s : Sdx_fabric.Deployment.sample) -> s.time = t) samples
  in
  let i1 t = Sdx_fabric.Deployment.rate (at t) "AWS Instance #1"
  and i2 t = Sdx_fabric.Deployment.rate (at t) "AWS Instance #2" in
  note "check: before policy #1=%.0f #2=%.0f; after policy #1=%.0f #2=%.0f"
    (i1 120) (i2 120) (i1 400) (i2 400)

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)

let average values =
  List.fold_left ( + ) 0 values / max 1 (List.length values)

let run_fig6 ~seed ~scale ~repeats =
  section "Figure 6: prefix groups vs prefixes with SDX policies";
  note "paper: sub-linear growth; ~1,400 groups at 25k prefixes / 300 participants";
  note "scale factor %g on prefix counts; averaged over %d run(s)" scale repeats;
  let participant_counts = [ 100; 200; 300 ] in
  let xs =
    List.map
      (fun x -> max 10 (int_of_float (float_of_int x *. scale)))
      [ 2_500; 5_000; 10_000; 15_000; 20_000; 25_000 ]
  in
  Format.printf "  %12s" "prefixes";
  List.iter (fun n -> Format.printf " %9d-part" n) participant_counts;
  Format.printf "@.";
  let universe_size = max 10 (int_of_float (25_000.0 *. scale)) in
  let universe = Prefixes.table universe_size in
  List.iter
    (fun x ->
      Format.printf "  %12d" x;
      List.iter
        (fun n ->
          let groups_per_run =
            List.init repeats (fun rep ->
                let rng = Rng.create ~seed:(seed + n + (1000 * rep)) in
                let sets =
                  Workload.announcement_sets rng ~participants:n
                    ~prefixes:universe_size
                in
                (* Sample x prefixes "with SDX policies" from the announced
                   table and restrict each announcement set to the sample,
                   as the paper's Figure 6 experiment does. *)
                let px = Prefix.Set.of_list (Rng.sample rng universe x) in
                let restricted = List.map (Prefix.Set.inter px) sets in
                Sdx_oracle.Fec.group_count ~sets:restricted
                  ~default_key:(fun _ -> 0))
          in
          Format.printf " %14d" (average groups_per_run))
        participant_counts;
      Format.printf "@.")
    xs

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8 (one workload sweep feeds both)                     *)

type sweep_point = {
  participants : int;
  prefixes : int;
  groups : int;
  rules : int;
  compile_s : float;
  memo_hits : int;
}

let sweep_workload ~seed ~scale ~repeats ~participant_counts ~prefix_points =
  List.concat_map
    (fun n ->
      List.map
        (fun raw_x ->
          let x = max 50 (int_of_float (float_of_int raw_x *. scale)) in
          (* Transit policies scale with the table so the sweep spans the
             paper's prefix-group axis (their transit networks pin one
             group per policy; more prefixes, more pinned groups). *)
          let transit_picks = max 1 (x / 500) in
          let runs =
            List.init repeats (fun rep ->
                let rng = Rng.create ~seed:(seed + n + raw_x + (1000 * rep)) in
                let w =
                  Workload.build rng ~participants:n ~prefixes:x ~transit_picks ()
                in
                let runtime = Workload.runtime w in
                Sdx_core.Compile.stats (Sdx_core.Runtime.compiled runtime))
          in
          let avg f = average (List.map f runs) in
          let avg_f f =
            List.fold_left (fun acc r -> acc +. f r) 0.0 runs
            /. float_of_int (max 1 repeats)
          in
          {
            participants = n;
            prefixes = x;
            groups = avg (fun (r : Sdx_core.Compile.stats) -> r.group_count);
            rules = avg (fun r -> r.rule_count);
            compile_s = avg_f (fun r -> r.elapsed_s);
            memo_hits = avg (fun r -> r.memo_hits);
          })
        prefix_points)
    participant_counts

let default_prefix_points = [ 2_500; 5_000; 10_000; 15_000; 20_000; 25_000 ]

let run_fig7_fig8 ~seed ~scale ~repeats =
  let points =
    sweep_workload ~seed ~scale ~repeats ~participant_counts:[ 100; 200; 300 ]
      ~prefix_points:default_prefix_points
  in
  section "Figure 7: forwarding rules vs prefix groups";
  note "paper: linear growth; ~28k rules at 1,000 groups / 300 participants";
  Format.printf "  %12s %12s %12s %12s@." "participants" "prefixes" "groups"
    "rules";
  List.iter
    (fun p ->
      Format.printf "  %12d %12d %12d %12d@." p.participants p.prefixes
        p.groups p.rules)
    points;
  section "Figure 8: initial compilation time vs prefix groups";
  note
    "paper: super-linear growth, minutes at 1,000 groups (Python/Pyretic); \
     ours is an optimized OCaml compiler, so absolute times are far smaller";
  Format.printf "  %12s %12s %12s %12s %12s@." "participants" "prefixes"
    "groups" "compile(s)" "memo hits";
  List.iter
    (fun p ->
      Format.printf "  %12d %12d %12d %12.3f %12d@." p.participants p.prefixes
        p.groups p.compile_s p.memo_hits)
    points

(* ------------------------------------------------------------------ *)
(* Figure 9                                                            *)

let run_fig9 ~seed ~scale =
  section "Figure 9: additional forwarding rules after a BGP update burst";
  note
    "paper: linear in burst size; ~2,500 extra rules for a 100-update burst \
     at 300 participants";
  let prefixes = max 200 (int_of_float (10_000.0 *. scale)) in
  Format.printf "  %12s %12s %12s %12s@." "participants" "burst size"
    "extra rules" "per update";
  List.iter
    (fun n ->
      let rng = Rng.create ~seed:(seed + n) in
      let w = Workload.build rng ~participants:n ~prefixes () in
      let runtime = Workload.runtime w in
      List.iter
        (fun size ->
          let updates = Workload.burst rng w ~size in
          ignore (Sdx_core.Runtime.handle_burst runtime updates);
          let extra = Sdx_core.Runtime.extra_rule_count runtime in
          Format.printf "  %12d %12d %12d %12.1f@." n size extra
            (float_of_int extra /. float_of_int size);
          ignore (Sdx_core.Runtime.reoptimize runtime))
        [ 10; 20; 40; 60; 80; 100 ])
    [ 100; 200; 300 ]

(* ------------------------------------------------------------------ *)
(* Figure 10                                                           *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(int_of_float (p *. float_of_int (n - 1)))

let run_fig10 ~seed ~scale ~samples =
  section "Figure 10: time to process a single BGP update (CDF)";
  note "paper: < 100 ms most of the time, sub-second overall";
  let prefixes = max 200 (int_of_float (10_000.0 *. scale)) in
  Format.printf "  %12s %10s %10s %10s %10s %10s@." "participants" "p10(ms)"
    "p50(ms)" "p90(ms)" "p99(ms)" "max(ms)";
  List.iter
    (fun n ->
      let rng = Rng.create ~seed:(seed + n) in
      let w = Workload.build rng ~participants:n ~prefixes () in
      let runtime = Workload.runtime w in
      let times =
        List.filter_map
          (fun u ->
            let stats = Sdx_core.Runtime.handle_update runtime u in
            if stats.best_changed then Some (1000.0 *. stats.processing_s)
            else None)
          (List.init samples (fun _ ->
               Workload.random_best_changing_update rng w))
      in
      let arr = Array.of_list times in
      Array.sort Float.compare arr;
      Format.printf "  %12d %10.3f %10.3f %10.3f %10.3f %10.3f@." n
        (percentile arr 0.10) (percentile arr 0.50) (percentile arr 0.90)
        (percentile arr 0.99)
        (if Array.length arr = 0 then nan else arr.(Array.length arr - 1)))
    [ 100; 200; 300 ]

(* ------------------------------------------------------------------ *)
(* Ablation: §4.3.1 optimizations on vs off                            *)

let run_ablation ~seed =
  section "Ablation: optimized vs naive (literal Pyretic-style) compilation";
  note
    "the naive composition compiles (P1+..+Pn) >> (P1+..+Pn) through the \
     policy compiler; it explodes quickly, which is why §4.3 exists";
  note
    "naive(s) is the compile's grouping stages plus the literal \
     composition over its groups (the sdx_oracle reference)";
  Format.printf "  %12s %10s %14s %14s %12s %12s@." "participants" "prefixes"
    "optimized(s)" "naive(s)" "opt rules" "naive rules";
  List.iter
    (fun (n, x) ->
      let rng = Rng.create ~seed in
      let w = Workload.build rng ~participants:n ~prefixes:x () in
      let compiled =
        Sdx_core.Runtime.compiled (Sdx_core.Runtime.create w.Workload.config)
      in
      let s_opt = Sdx_core.Compile.stats compiled in
      let t0 = Unix.gettimeofday () in
      let naive = Sdx_oracle.Literal.compose compiled w.Workload.config in
      let naive_s =
        s_opt.elapsed_s -. s_opt.compose_s +. (Unix.gettimeofday () -. t0)
      in
      Format.printf "  %12d %10d %14.3f %14.3f %12d %12d@." n x s_opt.elapsed_s
        naive_s s_opt.rule_count
        (Sdx_policy.Classifier.rule_count naive))
    [ (10, 100); (20, 200); (30, 300) ]

(* ------------------------------------------------------------------ *)
(* Ablation: §4.2 VMAC data-plane compression                          *)

let run_vmac_ablation ~seed ~scale =
  section "Ablation: VMAC tagging vs per-prefix rules (4.2)";
  note
    "without the multi-stage FIB, every group rule becomes one rule per \
     prefix; at the paper's 500k-prefix table this is what makes the SDX \
     fit in a hardware switch at all";
  note
    "the 'aggregated' column is the conventional-prefix-aggregation \
     alternative 4.2 dismisses: groups are rarely contiguous, so it \
     recovers almost nothing";
  Format.printf "  %12s %10s %10s %14s %16s %14s %9s@." "participants"
    "prefixes" "groups" "rules (VMAC)" "rules (no VMAC)" "(aggregated)"
    "factor";
  List.iter
    (fun n ->
      List.iter
        (fun raw_x ->
          let x = max 50 (int_of_float (float_of_int raw_x *. scale)) in
          let rng = Rng.create ~seed:(seed + n + raw_x) in
          let w = Workload.build rng ~participants:n ~prefixes:x () in
          let runtime = Workload.runtime w in
          let compiled = Sdx_core.Runtime.compiled runtime in
          let stats = Sdx_core.Compile.stats compiled in
          let unagg = Sdx_core.Compile.unaggregated_rule_estimate compiled in
          let agg = Sdx_core.Compile.aggregated_rule_estimate compiled in
          Format.printf "  %12d %10d %10d %14d %16d %14d %8.1fx@." n x
            stats.group_count stats.rule_count unagg agg
            (float_of_int unagg /. float_of_int (max 1 stats.rule_count)))
        [ 10_000; 25_000 ])
    [ 100; 300 ]

(* ------------------------------------------------------------------ *)
(* Trace replay: the end-to-end §4.3.2 evaluation                      *)

let run_replay ~seed ~scale =
  section "Trace replay: a day of AMS-IX-like churn through the runtime";
  note
    "fast path per burst, background re-optimization in quiet gaps — the \
     full two-stage strategy of 4.3.2";
  let prefixes = max 200 (int_of_float (10_000.0 *. scale)) in
  List.iter
    (fun n ->
      let rng = Rng.create ~seed:(seed + n) in
      let w = Workload.build rng ~participants:n ~prefixes () in
      let runtime = Workload.runtime w in
      let profile = Trace.scale Trace.ams_ix (0.01 *. scale) in
      let trace =
        Replay.trace_for_workload rng w ~profile ~duration_s:86_400.0
      in
      let result = Replay.run runtime trace in
      Format.printf "  -- %d participants --@.  %a@." n Replay.pp_result result)
    [ 100; 300 ]

let sweep_rand_ip rng =
  Ipv4.of_int ((Rng.int rng 0x8000 lsl 16) lor Rng.int rng 0x10000)

(* Probe packets for the per-point equivalence check: 70% steered at a
   random oracle rule (pinned fields copied, free fields jittered, prefix
   fields sampled inside the prefix), 30% uniform noise.  Same idiom as
   the data-plane bench, but aimed at classifier rules rather than
   installed flows. *)
let sweep_probe rng (rules : Sdx_policy.Classifier.rule array) =
  let open Sdx_policy in
  if Rng.bool rng ~p:0.3 || Array.length rules = 0 then
    Packet.make ~port:(Rng.int rng 600)
      ~dst_mac:(Mac.of_int (Rng.int rng 0xFFFFFF))
      ~src_ip:(sweep_rand_ip rng) ~dst_ip:(sweep_rand_ip rng)
      ~dst_port:(Rng.pick rng [ 80; 443; 22 ])
      ()
  else begin
    let r = rules.(Rng.int rng (Array.length rules)) in
    let pat = r.Classifier.pattern in
    let inside p =
      let span = 1 lsl (32 - Prefix.length p) in
      Prefix.host p (Rng.int rng (min span 65536))
    in
    Packet.make
      ~port:(Option.value pat.Pattern.port ~default:(Rng.int rng 600))
      ~src_mac:
        (Option.value pat.src_mac ~default:(Mac.of_int (Rng.int rng 0xFFFFFF)))
      ~dst_mac:
        (Option.value pat.dst_mac ~default:(Mac.of_int (Rng.int rng 0xFFFFFF)))
      ~eth_type:(Option.value pat.eth_type ~default:Packet.ethertype_ipv4)
      ~src_ip:
        (match pat.src_ip with Some p -> inside p | None -> sweep_rand_ip rng)
      ~dst_ip:
        (match pat.dst_ip with Some p -> inside p | None -> sweep_rand_ip rng)
      ~proto:(Option.value pat.proto ~default:Packet.proto_tcp)
      ~src_port:(Option.value pat.src_port ~default:(Rng.int rng 65536))
      ~dst_port:
        (Option.value pat.dst_port ~default:(Rng.pick rng [ 80; 443; 22 ]))
      ()
  end

type compile_point = {
  sw_participants : int;
  sw_prefixes : int;
  sw_groups : int;
  sw_rules : int;
  sw_probes : int;
  sw_cross_s : float;
  sw_fdd_s : float;
  (* Composition-stage wall clock for each engine: the compile's
     [Compile.stats.compose_s], and the cross-product oracle's compose
     of the same blocks.  Total times additionally include group
     computation, reachability collection and ARP registration, which
     both share (the oracle's total is the compile's other stages plus
     its own compose) — the gated speedup divides the compose times so
     it measures the FDD core, not the shared phases. *)
  sw_cross_compose_s : float;
  sw_fdd_compose_s : float;
  sw_build_s : float;
  sw_extract_s : float;
  sw_nodes : int;
  sw_memo_hits : int;
  sw_table : int;
  sw_identical : bool;
  (* Group-phase instrumentation: wall-clock of the export-vector
     reachability pass and the interning pass, the naive-oracle
     (per-spec sets + Fec partition) wall-clock, the resulting phase
     speedup, and whether the interned partition is structurally
     identical to the oracle's. *)
  sw_reachability_s : float;
  sw_group_s : float;
  sw_naive_group_s : float;
  sw_group_speedup : float;
  sw_group_identical : bool;
  sw_heap_words : int;
      (* [Gc.quick_stat ()].top_heap_words sampled after the point: the
         process-lifetime high-water mark, i.e. the cumulative peak over
         this point and every earlier (smaller) one — an upper bound on
         the point's own footprint, not a per-point attribution (see
         EXPERIMENTS.md). *)
}

let run_json ~seed ~scale ~out ~verify =
  let oc = open_report out in
  section "Machine-readable compile benchmark: FDD vs cross-product sweep";
  note
    "per point: the cross-product oracle, the FDD compile, and the naive \
     grouping oracle (per-spec reachability sets + pairwise Fec \
     partition) against the interned \
     export-vector pipeline; 'identical' is per-packet agreement with \
     the cross-product oracle on steered probes AND structural identity \
     of the two partitions; the workload densifies the paper's \
     inbound-TE mix (3x content participation); the top row pushes the \
     prefix axis to 1M at full scale";
  let grid =
    List.map
      (fun (p, px) -> (p, max 100 (int_of_float (float_of_int px *. scale))))
      [ (100, 5_000); (300, 25_000); (500, 50_000); (100, 1_000_000) ]
  in
  let check = ref None in
  Format.printf "  %14s %9s %9s %9s %9s %10s@." "point" "cross.c" "fdd.c"
    "speedup" "grp.spd" "identical";
  let points =
    List.map
      (fun (participants, prefixes) ->
        (* Transit policies scale with the table but are capped so the
           1M point stresses grouping volume, not policy count. *)
        let transit_picks = max 1 (min 200 (prefixes / 500)) in
        let rng = Rng.create ~seed:(seed + participants + prefixes) in
        let w =
          Workload.build rng ~participants ~prefixes ~transit_picks
            ~inbound_density:3.0 ()
        in
        (* Each timed run starts from a compacted heap: the previous
           run's garbage would otherwise smear major-GC slices into this
           one's phase timers, and at the 50k+ points that smear (over a
           several-hundred-MB heap) swings the phase ratios by 2-3x run
           to run. *)
        let compile () =
          Gc.compact ();
          let t0 = Unix.gettimeofday () in
          let c = Sdx_core.Compile.compile w.Workload.config (Sdx_core.Vnh.create ()) in
          (c, Unix.gettimeofday () -. t0)
        in
        (* The cross-product oracle runs first, straight after a compile
           of its own whose blocks it composes, and its total is that
           compile's other stages plus its compose; the timed FDD
           compile runs second.  Cold compiles are deterministic, so
           both lay out the same blocks with the same VMACs. *)
        let cross, cross_s =
          let c, c_s = compile () in
          let o = Sdx_oracle.Crossproduct.compose c w.Workload.config in
          (o, c_s -. (Sdx_core.Compile.stats c).compose_s +. o.compose_s)
        in
        let cross_compose = cross.compose_s in
        let cross_cls = cross.classifier in
        let fdd, fdd_s = compile () in
        let stats = Sdx_core.Compile.stats fdd in
        let fdd_cls = Sdx_core.Compile.classifier fdd in
        (* Probe volume scales with the table so oracle-equivalence
           coverage does not thin out at the 1M point. *)
        let probes = max 2_500 (stats.rule_count / 16) in
        let prng = Rng.create ~seed:(seed + (7 * participants)) in
        let rules = Array.of_list cross_cls in
        let pkts = List.init probes (fun _ -> sweep_probe prng rules) in
        let identical =
          Sdx_policy.Classifier.equivalent_on fdd_cls cross_cls pkts
        in
        (* The naive grouping oracle: per-spec reachability sets plus the
           pairwise-signature Fec partition, compared structurally
           against the interned pipeline's groups.  Timed from a
           compacted heap, like every engine run above. *)
        Gc.compact ();
        let naive_t0 = Unix.gettimeofday () in
        let naive_parts = Sdx_oracle.Naive.partition w.Workload.config in
        let naive_s = Unix.gettimeofday () -. naive_t0 in
        let group_identical =
          List.map
            (fun (g : Sdx_core.Compile.group) -> g.prefixes)
            (Sdx_core.Compile.groups fdd)
          = naive_parts
        in
        let phase_s = stats.reachability_s +. stats.group_s in
        let group_speedup = naive_s /. Float.max phase_s 1e-9 in
        if verify && participants = 500 then
          check := Some (Sdx_check.Check.compiled fdd w.Workload.config);
        Format.printf "  %6dx%7d %9.3f %9.3f %8.2fx %8.2fx %10b@."
          participants prefixes cross_compose stats.compose_s
          (cross_compose /. stats.compose_s)
          group_speedup
          (identical && group_identical);
        {
          sw_participants = participants;
          sw_prefixes = prefixes;
          sw_groups = stats.group_count;
          sw_rules = stats.rule_count;
          sw_probes = probes;
          sw_cross_s = cross_s;
          sw_fdd_s = fdd_s;
          sw_cross_compose_s = cross_compose;
          sw_fdd_compose_s = stats.compose_s;
          sw_build_s = stats.fdd_build_s;
          sw_extract_s = stats.fdd_extract_s;
          sw_nodes = stats.fdd_nodes;
          sw_memo_hits = stats.fdd_memo_hits;
          sw_table = stats.fdd_table_size;
          sw_identical = identical;
          sw_reachability_s = stats.reachability_s;
          sw_group_s = stats.group_s;
          sw_naive_group_s = naive_s;
          sw_group_speedup = group_speedup;
          sw_group_identical = group_identical;
          sw_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
        })
      grid
  in
  (* Headline summary point: the densest-policy point (500x50k at full
     scale) — the grouping-speedup floor and the FDD compose floor are
     both stated there.  The deepest point (1M prefixes at full scale)
     gets its own top_point_* summary keys. *)
  let headline =
    List.fold_left
      (fun a p -> if p.sw_participants > a.sw_participants then p else a)
      (List.hd points) points
  in
  let deepest =
    List.fold_left
      (fun a p -> if p.sw_prefixes > a.sw_prefixes then p else a)
      (List.hd points) points
  in
  let peak_heap = List.fold_left (fun a p -> max a p.sw_heap_words) 0 points in
  let all_identical = List.for_all (fun p -> p.sw_identical) points in
  let all_group_identical =
    List.for_all (fun p -> p.sw_group_identical) points
  in
  let check_fields =
    match !check with
    | None -> ""
    | Some r ->
        Printf.sprintf
          ",\n\
          \  \"check_errors\": %d,\n\
          \  \"check_warnings\": %d,\n\
          \  \"check_rules\": %d,\n\
          \  \"check_elapsed_s\": %.6f"
          (List.length (Sdx_check.Check.errors r))
          (List.length (Sdx_check.Check.warnings r))
          r.Sdx_check.Check.rules_checked r.Sdx_check.Check.elapsed_s
  in
  let point_json p =
    Printf.sprintf
      "    {\"participants\": %d, \"prefixes\": %d, \"groups\": %d, \
       \"rules\": %d, \"probes\": %d, \"crossproduct_s\": %.6f, \
       \"fdd_seq_s\": %.6f, \"crossproduct_compose_s\": %.6f, \
       \"fdd_seq_compose_s\": %.6f, \"build_s\": %.6f, \
       \"extract_s\": %.6f, \"fdd_nodes\": %d, \"fdd_memo_hits\": %d, \
       \"fdd_unique_table_size\": %d, \
       \"total_speedup\": %.3f, \"speedup\": %.3f, \
       \"reachability_s\": %.6f, \"group_s\": %.6f, \
       \"naive_group_s\": %.6f, \"group_speedup\": %.3f, \
       \"peak_heap_words\": %d, \
       \"identical_to_group_naive\": %b, \
       \"identical_to_crossproduct\": %b}"
      p.sw_participants p.sw_prefixes p.sw_groups p.sw_rules p.sw_probes
      p.sw_cross_s p.sw_fdd_s p.sw_cross_compose_s p.sw_fdd_compose_s
      p.sw_build_s p.sw_extract_s p.sw_nodes p.sw_memo_hits p.sw_table
      (p.sw_cross_s /. p.sw_fdd_s)
      (p.sw_cross_compose_s /. p.sw_fdd_compose_s)
      p.sw_reachability_s p.sw_group_s p.sw_naive_group_s p.sw_group_speedup
      p.sw_heap_words p.sw_group_identical p.sw_identical
  in
  (* Summary fields repeat the headline (densest-policy) point after the
     sweep array, so line-anchored greps (the bench gate) land on the
     headline numbers; top_point_* keys describe the deepest-prefix
     point. *)
  Printf.fprintf oc
    "{\n\
    \  \"probes\": %d,\n\
    \  \"sweep\": [\n%s\n\  ],\n\
    \  \"participants\": %d,\n\
    \  \"prefixes\": %d,\n\
    \  \"groups\": %d,\n\
    \  \"rules\": %d,\n\
    \  \"crossproduct_s\": %.6f,\n\
    \  \"fdd_seq_s\": %.6f,\n\
    \  \"elapsed_s\": %.6f,\n\
    \  \"crossproduct_compose_s\": %.6f,\n\
    \  \"fdd_seq_compose_s\": %.6f,\n\
    \  \"build_s\": %.6f,\n\
    \  \"extract_s\": %.6f,\n\
    \  \"fdd_nodes\": %d,\n\
    \  \"fdd_memo_hits\": %d,\n\
    \  \"fdd_unique_table_size\": %d,\n\
    \  \"total_speedup\": %.3f,\n\
    \  \"speedup\": %.3f,\n\
    \  \"reachability_s\": %.6f,\n\
    \  \"group_s\": %.6f,\n\
    \  \"naive_group_s\": %.6f,\n\
    \  \"group_speedup\": %.3f,\n\
    \  \"identical_to_group_naive\": %b,\n\
    \  \"top_point_participants\": %d,\n\
    \  \"top_point_prefixes\": %d,\n\
    \  \"top_point_groups\": %d,\n\
    \  \"top_point_elapsed_s\": %.6f,\n\
    \  \"top_point_group_speedup\": %.3f,\n\
    \  \"peak_heap_words\": %d,\n\
    \  \"identical_to_crossproduct\": %b%s\n\
     }\n"
    headline.sw_probes
    (String.concat ",\n" (List.map point_json points))
    headline.sw_participants headline.sw_prefixes headline.sw_groups
    headline.sw_rules headline.sw_cross_s headline.sw_fdd_s headline.sw_fdd_s
    headline.sw_cross_compose_s headline.sw_fdd_compose_s headline.sw_build_s
    headline.sw_extract_s headline.sw_nodes headline.sw_memo_hits
    headline.sw_table
    (headline.sw_cross_s /. headline.sw_fdd_s)
    (headline.sw_cross_compose_s /. headline.sw_fdd_compose_s)
    headline.sw_reachability_s headline.sw_group_s headline.sw_naive_group_s
    headline.sw_group_speedup all_group_identical deepest.sw_participants
    deepest.sw_prefixes deepest.sw_groups deepest.sw_fdd_s
    deepest.sw_group_speedup peak_heap all_identical check_fields;
  close_out oc;
  note
    "wrote %s (headline %dx%d: compose %.2fx, grouping %.2fx; top point \
     %dx%d in %.2fs, identical=%b)"
    out headline.sw_participants headline.sw_prefixes
    (headline.sw_cross_compose_s /. headline.sw_fdd_compose_s)
    headline.sw_group_speedup deepest.sw_participants deepest.sw_prefixes
    deepest.sw_fdd_s
    (all_identical && all_group_identical);
  (match !check with
  | None -> ()
  | Some r ->
      note "static check: %s" (Sdx_check.Check.summary r);
      if Sdx_check.Check.has_errors r then begin
        Format.printf "%a@." Sdx_check.Check.pp_report r;
        note "ERROR: static verification found errors; failing";
        exit 1
      end);
  (* The equivalence check is the point of this target: make its failure
     visible to CI, not just a field in the JSON. *)
  if not all_identical then begin
    note "ERROR: FDD classifier differs from the cross-product oracle; failing";
    exit 1
  end;
  if not all_group_identical then begin
    note
      "ERROR: interned grouping differs from the naive grouping oracle; \
       failing";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Data-plane match engine vs. linear scan                             *)

(* §4.2's FECs and VMAC tagging exist because per-packet matching over
   thousands of rules is the switch bottleneck.  This target measures
   our software data plane's answer: the layered match engine behind
   Openflow.Table, against the pre-engine linear scan
   (Table.lookup_linear), over tables cut from a really compiled SDX
   scenario — so shapes, VMAC pins, and prefix bands are the real
   thing, not synthetic uniformity. *)

let rand_ip rng = Ipv4.of_int ((Rng.int rng 0x8000 lsl 16) lor Rng.int rng 0x10000)

let synth_packet rng (flows : Sdx_openflow.Flow.t array) =
  (* 70%: a packet steered at a random rule (its pinned fields copied,
     the rest jittered) — it may still be claimed by a higher-priority
     rule, which is the realistic case.  30%: uniform noise, mostly
     misses and residual-band work. *)
  if Rng.bool rng ~p:0.3 || Array.length flows = 0 then
    Packet.make ~port:(Rng.int rng 32)
      ~dst_mac:(Mac.of_int (Rng.int rng 0xFFFFFF))
      ~src_ip:(rand_ip rng) ~dst_ip:(rand_ip rng)
      ~dst_port:(Rng.pick rng [ 80; 443; 22 ])
      ()
  else begin
    let f = flows.(Rng.int rng (Array.length flows)) in
    let pat = f.Sdx_openflow.Flow.pattern in
    let inside p =
      let span = 1 lsl (32 - Prefix.length p) in
      Prefix.host p (Rng.int rng (min span 65536))
    in
    Packet.make
      ~port:(Option.value pat.Sdx_policy.Pattern.port ~default:(Rng.int rng 32))
      ~src_mac:(Option.value pat.src_mac ~default:(Mac.of_int (Rng.int rng 0xFFFFFF)))
      ~dst_mac:(Option.value pat.dst_mac ~default:(Mac.of_int (Rng.int rng 0xFFFFFF)))
      ~eth_type:(Option.value pat.eth_type ~default:Packet.ethertype_ipv4)
      ~src_ip:(match pat.src_ip with Some p -> inside p | None -> rand_ip rng)
      ~dst_ip:(match pat.dst_ip with Some p -> inside p | None -> rand_ip rng)
      ~proto:(Option.value pat.proto ~default:Packet.proto_tcp)
      ~src_port:(Option.value pat.src_port ~default:(Rng.int rng 65536))
      ~dst_port:(Option.value pat.dst_port ~default:(Rng.pick rng [ 80; 443; 22 ]))
      ()
  end

type dataplane_point = {
  dp_rules : int;
  dp_engine_pps : float;
  dp_linear_pps : float;
  dp_identical : bool;
  dp_stats : Sdx_openflow.Table.engine_stats;
}

let dataplane_point ~seed ~packets all_flows size =
  let flows =
    List.filteri (fun i _ -> i < size) all_flows
  in
  let table = Sdx_openflow.Table.create () in
  Sdx_openflow.Table.install_all table flows;
  let rules = Sdx_openflow.Table.size table in
  let rng = Rng.create ~seed:(seed + size) in
  let flow_arr = Array.of_list flows in
  let pkts = Array.init packets (fun _ -> synth_packet rng flow_arr) in
  (* The linear scan is O(rules) per packet; give it a budget that keeps
     the bench finite at 10k+ rules and normalize to pkts/sec. *)
  let m_linear = max 1_000 (min packets (4_000_000 / max 1 rules)) in
  let identical = ref true in
  for i = 0 to m_linear - 1 do
    (* Oracle first (pure), then the engine (counts the packet). *)
    let linear = Sdx_openflow.Table.lookup_linear table pkts.(i) in
    let engine = Sdx_openflow.Table.lookup table pkts.(i) in
    if engine <> linear then identical := false
  done;
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let engine_s =
    time (fun () ->
        for i = 0 to packets - 1 do
          ignore (Sdx_openflow.Table.lookup table pkts.(i))
        done)
  in
  let linear_s =
    time (fun () ->
        for i = 0 to m_linear - 1 do
          ignore (Sdx_openflow.Table.lookup_linear table pkts.(i))
        done)
  in
  {
    dp_rules = rules;
    dp_engine_pps = float_of_int packets /. engine_s;
    dp_linear_pps = float_of_int m_linear /. linear_s;
    dp_identical = !identical;
    dp_stats = Sdx_openflow.Table.engine_stats table;
  }

let dataplane_sweep ~seed ~scale ~packets =
  let prefixes = max 2_500 (int_of_float (25_000.0 *. scale)) in
  let transit_picks = max 1 (prefixes / 500) in
  let rng = Rng.create ~seed in
  let w = Workload.build rng ~participants:300 ~prefixes ~transit_picks () in
  let runtime = Workload.runtime w in
  let all_flows = Sdx_core.Runtime.flows runtime in
  let total = List.length all_flows in
  let sizes =
    List.sort_uniq Int.compare
      (List.filter (fun s -> s <= total) [ 100; 1_000; 5_000; 10_000; 20_000; total ])
  in
  ( total,
    List.map (fun s -> dataplane_point ~seed ~packets all_flows s) sizes,
    all_flows )

let pp_dataplane_points points =
  Format.printf "  %10s %14s %14s %9s %7s %6s %7s %7s %7s %6s %10s@." "rules"
    "engine pkt/s" "linear pkt/s" "speedup" "dst_mac" "macs" "exact" "prefix"
    "resid" "shapes" "identical";
  List.iter
    (fun p ->
      Format.printf "  %10d %14.0f %14.0f %8.1fx %7d %6d %7d %7d %7d %6d %10b@."
        p.dp_rules p.dp_engine_pps p.dp_linear_pps
        (p.dp_engine_pps /. p.dp_linear_pps)
        p.dp_stats.Sdx_openflow.Table.mac_entries p.dp_stats.mac_keys
        p.dp_stats.exact_entries p.dp_stats.prefix_entries
        p.dp_stats.residual_entries p.dp_stats.exact_shapes p.dp_identical)
    points

(* [on_readers w work] runs [work] on [w] domains at once, the caller's
   and [w - 1] spawned ones, and returns every result, the caller's
   first.  Each [work] times its own loop inside its domain, so spawning
   and joining stay outside every timed window. *)
let on_readers w work =
  let spawned =
    List.init (w - 1) (fun _ ->
        Sdx_sanitize.Sync.Domain.spawn ~name:"reader" work)
  in
  let mine = work () in
  mine :: List.map Sdx_sanitize.Sync.Domain.join spawned

(* Parallel RCU dataplane: every reader domain walks the packet vector
   against one shared immutable snapshot through its own private
   searcher cursor, so there is no lock to contend on and scaling is
   limited only by cores and memory bandwidth.  Each worker first
   cross-checks a budgeted sample of its answers against the frozen
   snapshot's linear scan, then repeats whole passes over the vector for
   at least [sweep_window_s], timing itself.  A run's rate is the sum of
   its workers' rates; a point is the median, min and max of
   [sweep_repeats] runs.  One pass of the default vector takes 10-14 ms
   and a spawned reader may start milliseconds after the caller, so a
   one-pass window would sum rates over windows that only partly
   overlap. *)
let sweep_window_s = 1.0
let sweep_repeats = 3

type parallel_point = {
  pw_workers : int;
  pw_pps : float;  (* median run *)
  pw_min_pps : float;
  pw_max_pps : float;
  pw_identical : bool;
}

let dataplane_parallel ~seed ~packets ~domains flows =
  let module Table = Sdx_openflow.Table in
  let table = Table.create () in
  Table.install_all table flows;
  let snap = Table.snapshot table in
  let rules = Table.snapshot_size snap in
  let flow_arr = Array.of_list flows in
  let rng = Rng.create ~seed:(seed + 7919) in
  let pkts = Array.init packets (fun _ -> synth_packet rng flow_arr) in
  let m_oracle = max 1_000 (min packets (4_000_000 / max 1 rules)) in
  let oracle =
    Array.init m_oracle (fun i -> Table.snapshot_linear snap pkts.(i))
  in
  let worker () =
    let find = Table.searcher snap in
    let ok = ref true in
    for i = 0 to m_oracle - 1 do
      if find pkts.(i) <> oracle.(i) then ok := false
    done;
    let t0 = Unix.gettimeofday () in
    let passes = ref 0 and elapsed = ref 0.0 in
    while !elapsed < sweep_window_s do
      for i = 0 to packets - 1 do
        ignore (find pkts.(i))
      done;
      incr passes;
      elapsed := Unix.gettimeofday () -. t0
    done;
    (!ok, float_of_int (!passes * packets) /. !elapsed)
  in
  let point w =
    let runs = List.init sweep_repeats (fun _ -> on_readers w worker) in
    let rates =
      List.sort Float.compare
        (List.map
           (List.fold_left (fun sum (_, pps) -> sum +. pps) 0.0)
           runs)
    in
    {
      pw_workers = w;
      pw_pps = List.nth rates (sweep_repeats / 2);
      pw_min_pps = List.hd rates;
      pw_max_pps = List.nth rates (sweep_repeats - 1);
      pw_identical = List.for_all (List.for_all fst) runs;
    }
  in
  (* Ascending from the 1-worker point, which is the single-core
     baseline. *)
  List.map point
    (List.sort_uniq Int.compare
       (List.filter
          (fun w -> w >= 1 && w <= domains)
          [ 1; 2; 4; max 1 (domains / 2); domains ]))

let pp_parallel_sweep sweep =
  let single = (List.hd sweep).pw_pps in
  Format.printf "  %8s %16s %14s %14s %9s %10s@." "workers" "aggregate pkt/s"
    "min" "max" "scaling" "identical";
  List.iter
    (fun p ->
      Format.printf "  %8d %16.0f %14.0f %14.0f %8.2fx %10b@." p.pw_workers
        p.pw_pps p.pw_min_pps p.pw_max_pps (p.pw_pps /. single) p.pw_identical)
    sweep

let run_dataplane ~seed ~scale ~packets ~domains ~out =
  let oc = open_report out in
  section "Data plane: layered match engine vs linear scan (4.2 motivation)";
  note
    "tables are prefixes of one compiled 300-participant scenario; packets \
     are 70%% rule-directed / 30%% noise; 'linear pkt/s' is the pre-engine \
     list scan on the same table";
  let total, points, all_flows = dataplane_sweep ~seed ~scale ~packets in
  note "compiled scenario yields %d rules; sweep truncates it per row" total;
  pp_dataplane_points points;
  let identical = List.for_all (fun p -> p.dp_identical) points in
  (* The headline JSON point is the largest table: that is where the
     engine has to earn its keep (acceptance asks >= 5x at >= 5k rules). *)
  let top = List.nth points (List.length points - 1) in
  section "Parallel RCU dataplane: per-domain workers over one snapshot";
  note
    "every worker repeats passes over the %d-packet vector for %.0f s \
     against the shared snapshot through a private searcher, after \
     cross-checking a sample of its answers against the snapshot's \
     linear scan; each point is the median, min and max of %d runs"
    packets sweep_window_s sweep_repeats;
  let domains =
    if domains > 0 then domains else Sdx_core.Parallel.default_domains ()
  in
  let par = dataplane_parallel ~seed ~packets ~domains all_flows in
  pp_parallel_sweep par;
  let single = List.hd par and widest = List.nth par (List.length par - 1) in
  let par_identical = List.for_all (fun p -> p.pw_identical) par in
  Printf.fprintf oc
    "{\n\
    \  \"participants\": 300,\n\
    \  \"rules\": %d,\n\
    \  \"packets\": %d,\n\
    \  \"engine_pps\": %.0f,\n\
    \  \"linear_pps\": %.0f,\n\
    \  \"speedup\": %.2f,\n\
    \  \"identical_to_linear\": %b,\n\
    \  \"cores\": %d,\n\
    \  \"ocaml_version\": \"%s\",\n\
    \  \"window_s\": %.1f,\n\
    \  \"repeats\": %d,\n\
    \  \"workers\": %d,\n\
    \  \"single_core_pps\": %.0f,\n\
    \  \"aggregate_pps\": %.0f,\n\
    \  \"parallel_identical\": %b,\n\
    \  \"mac_entries\": %d,\n\
    \  \"mac_keys\": %d,\n\
    \  \"mac_largest_bucket\": %d,\n\
    \  \"exact_entries\": %d,\n\
    \  \"prefix_entries\": %d,\n\
    \  \"residual_entries\": %d,\n\
    \  \"exact_shapes\": %d,\n\
    \  \"sweep\": [\n%s  ],\n\
    \  \"workers_sweep\": [\n%s  ]\n\
     }\n"
    top.dp_rules packets top.dp_engine_pps top.dp_linear_pps
    (top.dp_engine_pps /. top.dp_linear_pps)
    identical
    (Sdx_sanitize.Sync.Domain.recommended_count ())
    Sys.ocaml_version sweep_window_s sweep_repeats widest.pw_workers
    single.pw_pps widest.pw_pps par_identical
    top.dp_stats.Sdx_openflow.Table.mac_entries top.dp_stats.mac_keys
    top.dp_stats.mac_largest_bucket top.dp_stats.exact_entries
    top.dp_stats.prefix_entries top.dp_stats.residual_entries
    top.dp_stats.exact_shapes
    (String.concat ",\n"
       (List.map
          (fun p ->
            Printf.sprintf
              "    {\"sweep_rules\": %d, \"sweep_engine_pps\": %.0f, \
               \"sweep_linear_pps\": %.0f, \"sweep_speedup\": %.2f}"
              p.dp_rules p.dp_engine_pps p.dp_linear_pps
              (p.dp_engine_pps /. p.dp_linear_pps))
          points)
     ^ "\n")
    (String.concat ",\n"
       (List.map
          (fun p ->
            Printf.sprintf
              "    {\"sweep_workers\": %d, \"sweep_aggregate_pps\": %.0f, \
               \"sweep_aggregate_min_pps\": %.0f, \
               \"sweep_aggregate_max_pps\": %.0f, \"sweep_identical\": %b}"
              p.pw_workers p.pw_pps p.pw_min_pps p.pw_max_pps p.pw_identical)
          par)
     ^ "\n");
  close_out oc;
  note "wrote %s (rules=%d, speedup %.1fx, identical=%b)" out top.dp_rules
    (top.dp_engine_pps /. top.dp_linear_pps)
    identical;
  note "parallel: %d workers, %.0f aggregate pkt/s (%.2fx single core), \
        identical=%b" widest.pw_workers widest.pw_pps
    (widest.pw_pps /. single.pw_pps)
    par_identical;
  (* Equivalence is the contract: fail loudly, like `json` does for its
     oracles. *)
  if not identical then begin
    note "ERROR: engine lookup diverges from the linear scan; failing";
    exit 1
  end;
  if not par_identical then begin
    note
      "ERROR: a parallel worker's lookups diverge from the snapshot's \
       linear scan; failing";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Churn soak: VNH lifecycle and transactional bursts under faults     *)

let run_soak ~seed ~updates ~participants ~prefixes ~pool_bits
    ~checkpoint_every ~check_every ~out =
  let oc = open_report out in
  section "Churn soak: fault-injected BGP churn through the runtime";
  note
    "withdraw storms, session flaps, duplicate trains and same-prefix \
     trains; sdx_check and a from-scratch-recompile equivalence probe run \
     at every checkpoint; the incremental checker re-verifies the dirty \
     set inline every %d burst(s)" (max check_every 0);
  let rng = Rng.create ~seed in
  let w = Workload.build rng ~participants ~prefixes () in
  (* A deliberately small VNH pool so the lifecycle (reclaim on
     supersession, pressure-triggered re-optimization) is actually
     exercised rather than hiding behind a /12's head-room.  It must
     still hold one VNH per prefix group, and under churn the group
     count approaches the prefix count — a pool smaller than that is a
     configuration error no lifecycle can absorb (the from-scratch
     recompile itself would not fit). *)
  let vnh_pool = Prefix.of_string (Printf.sprintf "172.16.0.0/%d" pool_bits) in
  let runtime = Sdx_core.Runtime.create ~vnh_pool w.Workload.config in
  note "%d participants, %d prefixes, VNH pool /%d (%d addresses)"
    participants prefixes pool_bits
    (Sdx_core.Vnh.capacity (Sdx_core.Runtime.vnh runtime));
  let check rt =
    let report = Sdx_check.Check.runtime rt in
    List.length (Sdx_check.Check.errors report)
  in
  let checkpoint_every =
    if checkpoint_every > 0 then checkpoint_every else max 1 (updates / 10)
  in
  let config =
    {
      Replay.default_soak_config with
      target_updates = updates;
      checkpoint_every;
      check_every;
    }
  in
  let check_incremental rt =
    let report = Sdx_check.Check.runtime_incremental rt in
    List.length (Sdx_check.Check.errors report)
  in
  let r = Replay.soak ~config ~check ~check_incremental rng w runtime in
  Format.printf "  %a@." Replay.pp_soak_result r;
  (* Instrumented-vs-plain overhead: replay a short identical slice of
     the same churn with the sdx_race detector off and then in Record
     mode.  The workload and runtime are rebuilt inside each slice so
     the Record-mode run constructs *tracked* tables and registries
     (structures created while the detector is off stay passthrough for
     their lifetime).  The instrumented slice doubles as the
     "zero races on the unmutated tree" soak check: any report fails
     the target. *)
  let module Sync = Sdx_sanitize.Sync in
  let slice_updates = max 1_000 (min updates 20_000) in
  let slice () =
    let rng = Rng.create ~seed:(seed + 1) in
    let w = Workload.build rng ~participants ~prefixes () in
    let runtime = Sdx_core.Runtime.create ~vnh_pool w.Workload.config in
    let config =
      {
        config with
        Replay.target_updates = slice_updates;
        checkpoint_every = slice_updates + 1;
        check_every = 0;
      }
    in
    let t0 = Unix.gettimeofday () in
    ignore (Replay.soak ~config rng w runtime);
    Unix.gettimeofday () -. t0
  in
  let prev_mode = Sync.mode () in
  let plain_s =
    Sync.set_mode Sync.Off;
    slice ()
  in
  Sync.set_mode Sync.Record;
  let record_s =
    Fun.protect ~finally:(fun () -> Sync.set_mode prev_mode) slice
  in
  let sanitizer_races = List.length (Sync.races ()) in
  List.iter
    (fun rep -> note "sanitizer: %s" (Sync.report_summary rep))
    (Sync.races ());
  Sync.clear_races ();
  let overhead_x = if plain_s > 0. then record_s /. plain_s else 1. in
  note
    "sanitizer overhead (%d-update slice): plain %.3fs, record %.3fs \
     (%.2fx), %d race report(s)"
    slice_updates plain_s record_s overhead_x sanitizer_races;
  Printf.fprintf oc
    "{\n\
    \  \"participants\": %d,\n\
    \  \"prefixes\": %d,\n\
    \  \"vnh_pool_bits\": %d,\n\
    \  \"updates\": %d,\n\
    \  \"bursts\": %d,\n\
    \  \"withdraw_storms\": %d,\n\
    \  \"session_flaps\": %d,\n\
    \  \"duplicate_trains\": %d,\n\
    \  \"same_prefix_trains\": %d,\n\
    \  \"checkpoints\": %d,\n\
    \  \"check_errors\": %d,\n\
    \  \"incremental_checks\": %d,\n\
    \  \"incremental_errors\": %d,\n\
    \  \"equiv_divergences\": %d,\n\
    \  \"reoptimizations\": %d,\n\
    \  \"reoptimize_p50_ms\": %.3f,\n\
    \  \"reoptimize_max_ms\": %.3f,\n\
    \  \"vnh_reclaimed\": %d,\n\
    \  \"vnh_peak_live\": %d,\n\
    \  \"vnh_capacity\": %d,\n\
    \  \"peak_extra_rules\": %d,\n\
    \  \"peak_fastpath_blocks\": %d,\n\
    \  \"groups_minted\": %d,\n\
    \  \"group_migrations\": %d,\n\
    \  \"groups_retired\": %d,\n\
    \  \"retired_tombstones\": %d,\n\
    \  \"elapsed_s\": %.3f,\n\
    \  \"updates_per_s\": %.0f,\n\
    \  \"sanitizer_slice_updates\": %d,\n\
    \  \"sanitizer_plain_s\": %.3f,\n\
    \  \"sanitizer_record_s\": %.3f,\n\
    \  \"sanitizer_overhead_x\": %.2f,\n\
    \  \"sanitizer_races\": %d\n\
     }\n"
    participants prefixes pool_bits r.Replay.soak_updates r.soak_bursts
    r.soak_withdraw_storms r.soak_session_flaps r.soak_duplicate_trains
    r.soak_same_prefix_trains r.soak_checkpoints r.soak_check_errors
    r.soak_incremental_checks r.soak_incremental_errors
    r.soak_equiv_divergences r.soak_reoptimizations
    (1e3 *. r.soak_reoptimize_p50_s)
    (1e3 *. r.soak_reoptimize_max_s)
    r.soak_vnh_reclaimed
    r.soak_vnh_peak_live r.soak_vnh_capacity r.soak_peak_extra_rules
    r.soak_peak_fastpath_blocks r.soak_groups_minted r.soak_group_migrations
    r.soak_groups_retired r.soak_retired_tombstones r.soak_elapsed_s
    r.soak_updates_per_s slice_updates plain_s record_s overhead_x
    sanitizer_races;
  close_out oc;
  note "wrote %s (%d updates, %d check errors, %d/%d inline, %d divergences)"
    out r.soak_updates r.soak_check_errors r.soak_incremental_errors
    r.soak_incremental_checks r.soak_equiv_divergences;
  (* Surviving is the contract: any checkpoint error, inline incremental
     error, or fast-path divergence from a from-scratch recompile fails
     the target. *)
  if r.soak_check_errors > 0 then begin
    note "ERROR: sdx_check reported error findings at a checkpoint; failing";
    exit 1
  end;
  if r.soak_incremental_errors > 0 then begin
    note
      "ERROR: the incremental checker reported error findings on a burst \
       commit; failing";
    exit 1
  end;
  if r.soak_equiv_divergences > 0 then begin
    note
      "ERROR: fast-path forwarding diverges from a from-scratch recompile; \
       failing";
    exit 1
  end;
  if sanitizer_races > 0 then begin
    note
      "ERROR: the sdx_race detector flagged the unmutated runtime during \
       the instrumented soak slice; failing";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Sharded fabric: edge sweep and two-phase consistent updates         *)

let run_fabric ~seed ~scale ~packets ~updates ~domains ~out =
  let oc = open_report out in
  let module Fabric = Sdx_fabric.Fabric in
  let module Ftopo = Sdx_fabric.Topology in
  let module Network = Sdx_fabric.Network in
  let module Parallel = Sdx_core.Parallel in
  section "Sharded fabric: edge/core split with versioned transit bands (4.1)";
  note
    "the logical classifier drives N edge switches plus a tag-only core; \
     every packet vector is re-walked over the sharded tables and checked \
     against the single big switch";
  let prefixes = max 200 (int_of_float (4_000.0 *. scale)) in
  let participants = 40 in
  let rng = Rng.create ~seed in
  let w = Workload.build rng ~participants ~prefixes () in
  let runtime = Workload.runtime w in
  let port_count = Sdx_core.Config.port_count w.Workload.config in
  let ports = List.init port_count (fun i -> i + 1) in
  let flow_arr = Array.of_list (Sdx_core.Runtime.flows runtime) in
  let prng = Rng.create ~seed:(seed + 7919) in
  let pkts = Array.init packets (fun _ -> synth_packet prng flow_arr) in
  let domains =
    if domains > 0 then domains else Parallel.default_domains ()
  in
  let logical_rules =
    Sdx_policy.Classifier.rule_count (Sdx_core.Runtime.classifier runtime)
  in
  (* Oracle: the same packets over the degenerate single-switch layout,
     through the same pure reader. *)
  let oracle_net = Network.create runtime in
  let oracle_read =
    Fabric.reader (Fabric.snapshots (Network.fabric oracle_net))
  in
  let canon outs = List.sort compare outs in
  let m_oracle = min packets 20_000 in
  let oracle = Array.init m_oracle (fun i -> canon (oracle_read pkts.(i))) in
  Format.printf "  %6s %8s %13s %13s %11s %9s %9s %16s %9s@." "edges" "workers"
    "logical rules" "largest edge" "core rules" "transit" "total" "aggregate pkt/s"
    "mismatch";
  let sweep =
    List.map
      (fun edges ->
        let topology = Ftopo.edge_core ~edges ~ports in
        let net = Network.create ~topology runtime in
        let fab = Network.fabric net in
        let counts = Fabric.rule_counts fab in
        let largest_edge =
          List.fold_left
            (fun m (s, n) -> if s = 0 then m else max m n)
            0 counts
        in
        let core_rules = List.assoc 0 counts in
        (* Transit-band copies over all switches: the slices' copies on
           their reach. *)
        let transit_rules =
          List.fold_left
            (fun n s ->
              Sdx_openflow.Table.entries
                (Sdx_openflow.Switch.table (Fabric.switch fab s) 0)
              |> List.filter (fun (f : Sdx_openflow.Flow.t) ->
                     f.priority >= Fabric.transit_base)
              |> List.length |> ( + ) n)
            0 (Fabric.switches fab)
        in
        let snap = Fabric.snapshots fab in
        (* One reader domain per edge: the parallelism sharding buys.
           Each walks the vector once; the slowest pass sets the rate. *)
        let workers = max 1 (min domains edges) in
        let per_worker =
          on_readers workers (fun () ->
              let read = Fabric.reader snap in
              let bad = ref 0 in
              let t0 = Unix.gettimeofday () in
              for i = 0 to packets - 1 do
                let r = read pkts.(i) in
                if i < m_oracle && canon r <> oracle.(i) then incr bad
              done;
              (!bad, Unix.gettimeofday () -. t0))
        in
        let mismatches =
          List.fold_left (fun n (bad, _) -> n + bad) 0 per_worker
        in
        let wall =
          List.fold_left (fun m (_, s) -> Float.max m s) 0.0 per_worker
        in
        let aggregate = float_of_int (workers * packets) /. wall in
        Format.printf "  %6d %8d %13d %13d %11d %9d %9d %16.0f %9d@." edges
          workers logical_rules largest_edge core_rules transit_rules
          (Fabric.total_rules fab) aggregate mismatches;
        (edges, workers, largest_edge, core_rules, transit_rules,
         Fabric.total_rules fab, aggregate, mismatches))
      [ 1; 2; 4 ]
  in
  let field f = List.map f sweep in
  let find_edges e =
    List.find (fun (edges, _, _, _, _, _, _, _) -> edges = e) sweep
  in
  let _, _, e1_largest, _, _, _, e1_pps, _ = find_edges 1 in
  let _, _, e4_largest, _, _, _, e4_pps, _ = find_edges 4 in
  let total_mismatches =
    List.fold_left ( + ) 0 (field (fun (_, _, _, _, _, _, _, m) -> m))
  in
  (* Churn soak over the 2-edge fabric: every 8th burst commits through
     the two-phase protocol with probe traffic injected inside each phase
     window; the consistency monitor must stay at zero. *)
  section "Two-phase consistent updates under churn (2 edges + core)";
  let soak_net = Network.create ~topology:(Ftopo.edge_core ~edges:2 ~ports) runtime in
  let soak_fab = Network.fabric soak_net in
  let probes = Array.sub pkts 0 (min packets 64) in
  let probe () =
    Array.iter (fun p -> ignore (Network.inject_at_port soak_net p)) probes
  in
  let commits = ref 0 and commit_mods = ref 0 and bursts_seen = ref 0 in
  let on_commit () =
    incr bursts_seen;
    if !bursts_seen mod 8 <> 0 then 0
    else begin
      let before = Fabric.mixed_version_packets soak_fab in
      let stats =
        Network.commit soak_net ~on_phase:(function
          | Fabric.Installed _ | Fabric.Flipped _ | Fabric.Collected _ ->
              probe ()
          | Fabric.Synced_member _ -> ())
      in
      incr commits;
      commit_mods := !commit_mods + Fabric.total_mods stats;
      Fabric.mixed_version_packets soak_fab - before
    end
  in
  let check _rt =
    let report = Sdx_check.Check.runtime runtime in
    let lint_errors =
      List.filter
        (fun (f : Sdx_check.Check.finding) ->
          f.severity = Sdx_check.Check.Error)
        (Sdx_check.Check.network_lints soak_net)
    in
    List.length (Sdx_check.Check.errors report) + List.length lint_errors
  in
  let srng = Rng.create ~seed:(seed + 1) in
  let config =
    {
      Replay.default_soak_config with
      target_updates = updates;
      checkpoint_every = max 1 (updates / 4);
      check_every = 0;
    }
  in
  let r = Replay.soak ~config ~check ~on_commit srng w runtime in
  Format.printf "  %a@." Replay.pp_soak_result r;
  (* Converge the data plane on the final ruleset and re-verify. *)
  Network.sync soak_net;
  probe ();
  let mixed = Fabric.mixed_version_packets soak_fab in
  let misses = Fabric.transit_misses soak_fab in
  let final_errors = check runtime in
  note
    "%d two-phase commits (%d flow-mods) under %d bursts; %d probe \
     packets walked; mixed-version packets: %d; transit misses: %d; \
     check errors: %d"
    !commits !commit_mods r.Replay.soak_bursts (Fabric.packets soak_fab)
    mixed misses final_errors;
  Printf.fprintf oc
    "{\n\
    \  \"participants\": %d,\n\
    \  \"prefixes\": %d,\n\
    \  \"packets\": %d,\n\
    \  \"logical_rules\": %d,\n\
    \  \"sweep\": [\n%s  ],\n\
    \  \"edge1_largest_rules\": %d,\n\
    \  \"edge4_largest_rules\": %d,\n\
    \  \"edge1_aggregate_pps\": %.0f,\n\
    \  \"edge4_aggregate_pps\": %.0f,\n\
    \  \"equiv_mismatches\": %d,\n\
    \  \"soak_updates\": %d,\n\
    \  \"soak_bursts\": %d,\n\
    \  \"commits\": %d,\n\
    \  \"commit_flow_mods\": %d,\n\
    \  \"probe_packets\": %d,\n\
    \  \"mixed_version_packets\": %d,\n\
    \  \"transit_misses\": %d,\n\
    \  \"check_errors\": %d,\n\
    \  \"workers\": %d\n\
     }\n"
    participants prefixes packets logical_rules
    (String.concat ",\n"
       (List.map
          (fun (edges, workers, largest, core, transit, total, pps, bad) ->
            Printf.sprintf
              "    {\"sweep_edges\": %d, \"sweep_workers\": %d, \
               \"sweep_largest_edge_rules\": %d, \"sweep_core_rules\": %d, \
               \"sweep_transit_rules\": %d, \"sweep_total_rules\": %d, \
               \"sweep_aggregate_pps\": %.0f, \"sweep_mismatches\": %d}"
              edges workers largest core transit total pps bad)
          sweep)
     ^ "\n")
    e1_largest e4_largest e1_pps e4_pps total_mismatches r.Replay.soak_updates
    r.soak_bursts !commits !commit_mods (Fabric.packets soak_fab) mixed misses
    final_errors domains;
  close_out oc;
  note "wrote %s (mismatches=%d, mixed=%d, edge rules %d -> %d)" out
    total_mismatches mixed e1_largest e4_largest;
  (* Contracts: sharded delivery must equal the big switch, the protocol
     must keep the consistency monitor at zero, and sharding must shrink
     the per-edge tables. *)
  if total_mismatches > 0 then begin
    note "ERROR: sharded delivery diverges from the single big switch; failing";
    exit 1
  end;
  if mixed > 0 || r.Replay.soak_commit_errors > 0 then begin
    note "ERROR: the consistency monitor counted mixed-version packets; failing";
    exit 1
  end;
  if final_errors > 0 then begin
    note "ERROR: sdx_check reported error findings on the sharded fabric; failing";
    exit 1
  end;
  if e4_largest >= e1_largest then begin
    note "ERROR: 4-edge fabric does not shrink per-edge rule tables; failing";
    exit 1
  end;
  if e4_pps < e1_pps then begin
    if domains >= 4 then begin
      note "ERROR: aggregate throughput fell with more edges; failing";
      exit 1
    end
    else
      note
        "WARN: aggregate throughput fell with more edges (only %d worker \
         domain(s) available; scaling needs one per edge)"
        domains
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let run_bechamel () =
  section "Bechamel micro-benchmarks (monotonic clock, ns/run)";
  let open Bechamel in
  let seed = 42 in
  (* Pre-build inputs outside the timed closures. *)
  let rng = Rng.create ~seed in
  let w = Workload.build rng ~participants:50 ~prefixes:500 () in
  let runtime = Workload.runtime w in
  let sets =
    Workload.announcement_sets (Rng.create ~seed) ~participants:100
      ~prefixes:1000
  in
  let big_pred =
    Sdx_policy.Pred.disj
      (List.init 64 (fun i ->
           Sdx_policy.Pred.dst_mac (Mac.of_int (0x020000000000 + i))))
  in
  let pipeline =
    Sdx_policy.Classifier.compile
      (Sdx_policy.Policy.if_
         (Sdx_policy.Pred.src_ip (Prefix.of_string "0.0.0.0/1"))
         (Sdx_policy.Policy.fwd 2) (Sdx_policy.Policy.fwd 3))
  in
  let upd_rng = Rng.create ~seed:(seed + 1) in
  let tests =
    [
      Test.make ~name:"classifier-seq-64xpipeline"
        (Staged.stage (fun () ->
             ignore
               (Sdx_policy.Classifier.seq
                  (Sdx_policy.Classifier.compile_pred big_pred)
                  pipeline)));
      Test.make ~name:"mds-partition-100x1000"
        (Staged.stage (fun () ->
             ignore (Sdx_oracle.Fec.group_count ~sets ~default_key:(fun _ -> 0))));
      Test.make ~name:"incremental-update"
        (Staged.stage (fun () ->
             ignore
               (Sdx_core.Runtime.handle_update runtime
                  (Workload.random_best_changing_update upd_rng w))));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:true () in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"sdx" ~fmt:"%s/%s" tests)
  in
  let results = Analyze.all ols instance raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> note "%-36s %14.0f ns/run" name est
      | _ -> note "%-36s (no estimate)" name)
    results

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)

let run_all ~seed ~scale ~samples ~repeats =
  run_table1 ~seed ~scale;
  run_fig5a ();
  run_fig5b ();
  run_fig6 ~seed ~scale ~repeats;
  run_fig7_fig8 ~seed ~scale ~repeats;
  run_fig9 ~seed ~scale;
  run_fig10 ~seed ~scale ~samples;
  run_ablation ~seed;
  run_vmac_ablation ~seed ~scale;
  run_replay ~seed ~scale;
  run_dataplane ~seed ~scale ~packets:100_000 ~domains:0
    ~out:"BENCH_dataplane.json";
  run_fabric ~seed ~scale ~packets:50_000 ~updates:2_000 ~domains:0
    ~out:"BENCH_fabric.json";
  run_bechamel ();
  Format.printf "@.done.@."

open Cmdliner

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload random seed.")

let scale_t =
  Arg.(
    value
    & opt float 0.1
    & info [ "scale" ]
        ~doc:
          "Scale factor on paper-sized inputs (1.0 = full 25k-prefix sweeps \
           and week-long traces).")

let samples_t =
  Arg.(
    value
    & opt int 150
    & info [ "samples" ] ~doc:"Number of updates for the Figure 10 CDF.")

let repeats_t =
  Arg.(
    value
    & opt int 1
    & info [ "repeats" ]
        ~doc:"Runs to average for Figures 6-8 (the paper uses 10).")

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let commands =
  [
    cmd "table1" "Table 1: IXP dataset statistics from synthetic traces."
      Term.(const (fun seed scale -> run_table1 ~seed ~scale) $ seed_t $ scale_t);
    cmd "fig5a" "Figure 5a: application-specific peering deployment."
      Term.(const run_fig5a $ const ());
    cmd "fig5b" "Figure 5b: wide-area load balance deployment."
      Term.(const run_fig5b $ const ());
    cmd "fig6" "Figure 6: prefix groups vs prefixes."
      Term.(
        const (fun seed scale repeats -> run_fig6 ~seed ~scale ~repeats)
        $ seed_t $ scale_t $ repeats_t);
    cmd "fig7" "Figures 7-8: rules and compile time vs prefix groups."
      Term.(
        const (fun seed scale repeats -> run_fig7_fig8 ~seed ~scale ~repeats)
        $ seed_t $ scale_t $ repeats_t);
    cmd "fig8" "Figures 7-8: rules and compile time vs prefix groups."
      Term.(
        const (fun seed scale repeats -> run_fig7_fig8 ~seed ~scale ~repeats)
        $ seed_t $ scale_t $ repeats_t);
    cmd "fig9" "Figure 9: additional rules vs BGP burst size."
      Term.(const (fun seed scale -> run_fig9 ~seed ~scale) $ seed_t $ scale_t);
    cmd "fig10" "Figure 10: per-update processing time CDF."
      Term.(
        const (fun seed scale samples -> run_fig10 ~seed ~scale ~samples)
        $ seed_t $ scale_t $ samples_t);
    cmd "ablation" "Optimized vs naive compilation."
      Term.(const (fun seed -> run_ablation ~seed) $ seed_t);
    cmd "vmac" "VMAC tagging vs per-prefix rules."
      Term.(
        const (fun seed scale -> run_vmac_ablation ~seed ~scale)
        $ seed_t $ scale_t);
    cmd "replay" "Replay a day of IXP churn through the runtime."
      Term.(const (fun seed scale -> run_replay ~seed ~scale) $ seed_t $ scale_t);
    cmd "json" "Write BENCH_compile.json (machine-readable compile bench)."
      Term.(
        const (fun seed scale out verify -> run_json ~seed ~scale ~out ~verify)
        $ seed_t $ scale_t
        $ Arg.(
            value
            & opt string "BENCH_compile.json"
            & info [ "out" ] ~doc:"Output path for the JSON report.")
        $ Arg.(
            value & flag
            & info [ "verify" ]
                ~doc:
                  "Also statically verify the compiled classifier \
                   (isolation, BGP consistency, loops, lints); add \
                   check_* fields to the JSON and fail on errors."));
    cmd "dataplane"
      "Data-plane lookup throughput: layered match engine vs linear scan; \
       writes BENCH_dataplane.json."
      Term.(
        const (fun seed scale packets domains out ->
            run_dataplane ~seed ~scale ~packets ~domains ~out)
        $ seed_t $ scale_t
        $ Arg.(
            value
            & opt int 100_000
            & info [ "packets" ]
                ~doc:
                  "Packets in each synthetic vector: timed once per table \
                   size, and passed over repeatedly by each worker of the \
                   parallel RCU sweep.")
        $ Arg.(
            value
            & opt int 0
            & info [ "domains" ]
                ~doc:
                  "Worker domains for the parallel RCU sweep (0 = \
                   SDX_DOMAINS or the recommended domain count).")
        $ Arg.(
            value
            & opt string "BENCH_dataplane.json"
            & info [ "out" ] ~doc:"Output path for the JSON report."));
    cmd "soak"
      "Fault-injected churn soak: VNH lifecycle, transactional bursts, \
       checkpointed verification; writes BENCH_churn.json."
      Term.(
        const (fun seed updates participants prefixes pool_bits
                   checkpoint_every check_every out ->
            run_soak ~seed ~updates ~participants ~prefixes ~pool_bits
              ~checkpoint_every ~check_every ~out)
        $ seed_t
        $ Arg.(
            value
            & opt int 1_000_000
            & info [ "updates" ] ~doc:"Total BGP updates to push through.")
        $ Arg.(
            value
            & opt int 40
            & info [ "participants" ] ~doc:"IXP participants in the workload.")
        $ Arg.(
            value
            & opt int 400
            & info [ "prefixes" ] ~doc:"Announced prefixes in the workload.")
        $ Arg.(
            value
            & opt int 23
            & info [ "pool-bits" ]
                ~doc:
                  "VNH pool prefix length; small pools exercise reclamation \
                   and pressure re-optimization, but the pool must still \
                   hold one VNH per prefix group (roughly the prefix \
                   count under churn).")
        $ Arg.(
            value
            & opt int 0
            & info [ "checkpoint-every" ]
                ~doc:
                  "Updates between verification checkpoints (0 = a tenth of \
                   the total).")
        $ Arg.(
            value
            & opt int 1
            & info [ "check-every" ]
                ~doc:
                  "Bursts between inline incremental checks (1 = verify \
                   every burst commit; 0 = disable).")
        $ Arg.(
            value
            & opt string "BENCH_churn.json"
            & info [ "out" ] ~doc:"Output path for the JSON report."));
    cmd "fabric"
      "Sharded multi-switch fabric: edge sweep, delivery equivalence, and a \
       two-phase consistent-update soak; writes BENCH_fabric.json."
      Term.(
        const (fun seed scale packets updates domains out ->
            run_fabric ~seed ~scale ~packets ~updates ~domains ~out)
        $ seed_t $ scale_t
        $ Arg.(
            value
            & opt int 50_000
            & info [ "packets" ] ~doc:"Packets walked per edge count.")
        $ Arg.(
            value
            & opt int 2_000
            & info [ "updates" ]
                ~doc:"BGP updates churned through the two-phase soak.")
        $ Arg.(
            value
            & opt int 0
            & info [ "domains" ]
                ~doc:
                  "Worker domains for the per-edge reader sweep (0 = \
                   SDX_DOMAINS or the recommended domain count).")
        $ Arg.(
            value
            & opt string "BENCH_fabric.json"
            & info [ "out" ] ~doc:"Output path for the JSON report."));
    cmd "bechamel" "Bechamel micro-benchmarks."
      Term.(const run_bechamel $ const ());
    cmd "all" "Run every experiment."
      Term.(
        const (fun seed scale samples repeats ->
            run_all ~seed ~scale ~samples ~repeats)
        $ seed_t $ scale_t $ samples_t $ repeats_t);
  ]

let () =
  let default =
    Term.(
      const (fun seed scale samples repeats ->
          run_all ~seed ~scale ~samples ~repeats)
      $ seed_t $ scale_t $ samples_t $ repeats_t)
  in
  let info =
    Cmd.info "sdx-bench" ~doc:"Regenerate the SDX paper's tables and figures."
  in
  exit (Cmd.eval (Cmd.group ~default info commands))
