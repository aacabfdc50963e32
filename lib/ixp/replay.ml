
type result = {
  bursts : int;
  updates : int;
  best_changed : int;
  reoptimizations : int;
  peak_extra_rules : int;
  final_rules : int;
  mean_update_ms : float;
  p99_update_ms : float;
  max_update_ms : float;
}

let run ?(quiet_gap_s = 60.0) runtime trace =
  let bursts = ref 0 in
  let updates = ref 0 in
  let best_changed = ref 0 in
  let reoptimizations = ref 0 in
  let peak_extra = ref 0 in
  let times = ref [] in
  let last_at = ref neg_infinity in
  List.iter
    (fun (b : Trace.burst) ->
      (* A long quiet gap gives the background stage time to run. *)
      if b.at_s -. !last_at >= quiet_gap_s && Sdx_core.Runtime.extra_rule_count runtime > 0
      then begin
        ignore (Sdx_core.Runtime.reoptimize runtime);
        incr reoptimizations
      end;
      last_at := b.at_s;
      incr bursts;
      List.iter
        (fun update ->
          let stats = Sdx_core.Runtime.handle_update runtime update in
          incr updates;
          if stats.best_changed then incr best_changed;
          times := (1000.0 *. stats.processing_s) :: !times)
        b.updates;
      peak_extra := max !peak_extra (Sdx_core.Runtime.extra_rule_count runtime))
    trace;
  let arr = Array.of_list !times in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  let mean =
    if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 arr /. float_of_int n
  in
  let pct p = if n = 0 then 0.0 else arr.(int_of_float (p *. float_of_int (n - 1))) in
  {
    bursts = !bursts;
    updates = !updates;
    best_changed = !best_changed;
    reoptimizations = !reoptimizations;
    peak_extra_rules = !peak_extra;
    final_rules = Sdx_core.Runtime.rule_count runtime;
    mean_update_ms = mean;
    p99_update_ms = pct 0.99;
    max_update_ms = (if n = 0 then 0.0 else arr.(n - 1));
  }

let trace_for_workload rng (w : Workload.t) ~profile ~duration_s =
  let specs = Array.of_list w.specs in
  let universe = Array.of_list w.universe in
  let profile =
    { profile with Trace.prefixes = Array.length universe }
  in
  (* Updates come from real participants and touch real prefixes.  As in
     a live feed, not every announcement wins the decision process — the
     replay measures the realistic mix where only some updates move a
     best path (the paper: "not every BGP update induces changes in
     forwarding table entries"). *)
  let peer_of i = specs.(i mod Array.length specs).Population.asn in
  let prefix_of i = universe.(i mod Array.length universe) in
  let next_hop_of i = Workload.participant_port_ip (i mod Array.length specs) 0 in
  Trace.generate rng profile ~duration_s ~peer_of ~prefix_of ~next_hop_of ()

let pp_result fmt r =
  Format.fprintf fmt
    "@[<v>bursts: %d, updates: %d (%d moved a best path)@,\
     background re-optimizations: %d@,\
     peak fast-path rules: %d, final table: %d rules@,\
     per-update time: mean %.3f ms, p99 %.3f ms, max %.3f ms@]"
    r.bursts r.updates r.best_changed r.reoptimizations r.peak_extra_rules
    r.final_rules r.mean_update_ms r.p99_update_ms r.max_update_ms

(* ------------------------------------------------------------------ *)
(* Churn soak: unbounded synthetic churn with injected faults.         *)

open Sdx_net
open Sdx_bgp
open Sdx_core

(* What a (sender, prefix) pair experiences end to end: the SDX's
   announcement names a next hop, the ARP responder resolves it to the
   MAC the sender would tag packets with, and the flow table decides the
   delivery.  Comparing this between the live runtime and a from-scratch
   recompile is the fast-path equivalence the two-stage compiler
   promises — VNH identities differ between the two, the resolved
   delivery actions must not. *)
type delivery =
  | No_route
  | Unresolved  (** announced next hop has no ARP binding — always a bug *)
  | No_match  (** tagged probe fell through the classifier *)
  | Delivered of Sdx_policy.Mods.t list

let table_of rt =
  let table = Sdx_openflow.Table.create () in
  Sdx_openflow.Table.install_all table (Runtime.flows rt);
  table

let delivery_of rt table ~sender ~sport prefix =
  match Runtime.announcement rt ~receiver:sender prefix with
  | None -> No_route
  | Some (route : Route.t) -> (
      match Sdx_arp.Responder.query (Runtime.arp rt) route.next_hop with
      | None -> Unresolved
      | Some mac -> (
          let pkt =
            Packet.make ~port:sport ~dst_mac:mac ~dst_ip:(Prefix.first prefix)
              ()
          in
          match Sdx_openflow.Table.lookup table pkt with
          | None -> No_match
          | Some flow -> Delivered flow.Sdx_openflow.Flow.actions))

let forwarding_divergences rt ~reference =
  let config = Runtime.config rt in
  let live_table = table_of rt in
  let ref_table = table_of reference in
  let prefixes = Route_server.all_prefixes (Config.server config) in
  List.concat_map
    (fun (p : Participant.t) ->
      match Config.switch_ports_of config p.asn with
      | [] -> []
      | sport :: _ ->
          List.filter_map
            (fun prefix ->
              let live = delivery_of rt live_table ~sender:p.asn ~sport prefix in
              let fresh =
                delivery_of reference ref_table ~sender:p.asn ~sport prefix
              in
              if live = fresh then None else Some (p.asn, prefix))
            prefixes)
    (Config.participants config)

type soak_config = {
  target_updates : int;
  checkpoint_every : int;
  fault_every : int;  (** bursts between injected faults *)
  storm_size : int;  (** prefixes withdrawn per storm / session flap *)
  train_length : int;  (** updates per duplicate / same-prefix train *)
  max_burst : int;  (** normal-traffic burst size cap *)
  check_every : int;
      (** bursts between inline incremental checks (0 = disabled);
          1 verifies every burst commit *)
}

let default_soak_config =
  {
    target_updates = 1_000_000;
    checkpoint_every = 100_000;
    fault_every = 25;
    storm_size = 100;
    train_length = 50;
    max_burst = 8;
    check_every = 1;
  }

type soak_result = {
  soak_updates : int;
  soak_bursts : int;
  soak_withdraw_storms : int;
  soak_session_flaps : int;
  soak_duplicate_trains : int;
  soak_same_prefix_trains : int;
  soak_checkpoints : int;
  soak_check_errors : int;
  soak_incremental_checks : int;
  soak_incremental_errors : int;
  soak_commits : int;
  soak_commit_errors : int;
  soak_equiv_divergences : int;
  soak_reoptimizations : int;
  soak_vnh_reclaimed : int;
  soak_vnh_peak_live : int;
  soak_vnh_capacity : int;
  soak_peak_extra_rules : int;
  soak_peak_fastpath_blocks : int;
  soak_groups_minted : int;
  soak_group_migrations : int;
  soak_groups_retired : int;
  soak_retired_tombstones : int;
  soak_elapsed_s : float;
  soak_updates_per_s : float;
}

let soak ?(config = default_soak_config) ?check ?check_incremental ?on_commit
    rng (w : Workload.t) runtime =
  let server = Config.server w.config in
  let specs = Array.of_list w.specs in
  let n_specs = Array.length specs in
  let t0 = Unix.gettimeofday () in
  let updates_done = ref 0 in
  let bursts = ref 0 in
  let storms = ref 0 in
  let flaps = ref 0 in
  let dup_trains = ref 0 in
  let prefix_trains = ref 0 in
  let checkpoints = ref 0 in
  let check_errors = ref 0 in
  let incr_checks = ref 0 in
  let incr_errors = ref 0 in
  let commits = ref 0 in
  let commit_errors = ref 0 in
  let equiv = ref 0 in
  let peak_extras = ref 0 in
  let peak_blocks = ref 0 in
  (* Withdraw storms leave the session down for a few bursts; the
     captured routes come back through this queue so the table never
     erodes permanently. *)
  let pending : (int * Update.t list) Queue.t = Queue.create () in
  let handle us =
    match us with
    | [] -> ()
    | us ->
        ignore (Runtime.handle_burst runtime us);
        incr bursts;
        updates_done := !updates_done + List.length us;
        peak_extras := max !peak_extras (Runtime.extra_rule_count runtime);
        peak_blocks := max !peak_blocks (Runtime.fast_path_block_count runtime);
        (* Inline verification of the burst commit: the callback is
           expected to consume the runtime's dirty-set and run the
           incremental checker (a full pass after rebuilds). *)
        (match check_incremental with
        | Some f when config.check_every > 0 && !bursts mod config.check_every = 0
          ->
            incr incr_checks;
            incr_errors := !incr_errors + f runtime
        | _ -> ());
        (* Push the burst's ruleset into a live data plane (the sharded
           soak commits it through the fabric's two-phase update and
           probes for mixed-version packets); the callback reports how
           many anomalies the commit exposed. *)
        (match on_commit with
        | Some f ->
            incr commits;
            commit_errors := !commit_errors + f ()
        | None -> ())
  in
  let flush_pending () =
    let rec go () =
      match Queue.peek_opt pending with
      | Some (due, us) when due <= !bursts ->
          ignore (Queue.pop pending);
          handle us;
          go ()
      | _ -> ()
    in
    go ()
  in
  (* A capped snapshot of the routes [asn] currently has in the RIBs, so
     a flap can withdraw and later re-announce exactly what was there. *)
  let routes_of_peer asn =
    let ps = Route_server.prefixes_of server asn in
    let ps = List.filteri (fun i _ -> i < config.storm_size) ps in
    List.filter_map
      (fun p ->
        Option.map (fun r -> (p, r)) (Route_server.route_from server ~via:asn p))
      ps
  in
  let random_peer () = specs.(Rng.int rng n_specs).Population.asn in
  let withdraw_storm ~flap =
    let asn = random_peer () in
    match routes_of_peer asn with
    | [] -> ()
    | routes ->
        if flap then incr flaps else incr storms;
        handle (List.map (fun (p, _) -> Update.withdraw ~peer:asn p) routes);
        let restore = List.map (fun (_, r) -> Update.announce r) routes in
        if flap then handle restore
        else Queue.add (!bursts + 2 + Rng.int rng 6, restore) pending
  in
  let duplicate_train () =
    incr dup_trains;
    let u = Workload.random_best_changing_update rng w in
    (* The whole train in one burst (coalescing must fold it to one rule
       slice), then the identical update again — a pure no-op burst. *)
    handle (List.init config.train_length (fun _ -> u));
    handle [ u ]
  in
  (* Pathological same-prefix train: every update moves the prefix's
     best route, so each burst mints a VNH for it — the reproducer for
     the pool-exhaustion crash the lifecycle manager exists to absorb.
     Monotonically increasing local preference keeps every update a
     winner no matter what the rest of the soak did to this prefix. *)
  let train_lp = ref 300 in
  let same_prefix_train () =
    incr prefix_trains;
    let prefix, _ = Rng.pick rng w.announcers in
    for _ = 1 to config.train_length do
      let i = Rng.int rng n_specs in
      let s = specs.(i) in
      incr train_lp;
      handle
        [
          Update.announce
            (Route.make ~prefix
               ~next_hop:(Workload.participant_port_ip i 0)
               ~as_path:[ s.Population.asn; Asn.of_int (60_000 + Rng.int rng 5_000) ]
               ~local_pref:!train_lp ~learned_from:s.Population.asn ());
        ]
    done
  in
  let normal_burst () =
    if Rng.bool rng ~p:0.85 then
      handle (Workload.burst rng w ~size:(1 + Rng.int rng config.max_burst))
    else
      (* A lone withdrawal of one currently-held route. *)
      let prefix, _ = Rng.pick rng w.announcers in
      match Route_server.candidates server prefix with
      | [] -> ()
      | candidates ->
          let r = Rng.pick rng candidates in
          handle [ Update.withdraw ~peer:r.Route.learned_from prefix ]
  in
  let run_checkpoint () =
    incr checkpoints;
    (match check with
    | None -> ()
    | Some f -> check_errors := !check_errors + f runtime);
    let reference = Runtime.create (Runtime.config runtime) in
    equiv := !equiv + List.length (forwarding_divergences runtime ~reference)
  in
  let next_checkpoint = ref config.checkpoint_every in
  let iter = ref 0 in
  while !updates_done < config.target_updates do
    incr iter;
    flush_pending ();
    if config.fault_every > 0 && !iter mod config.fault_every = 0 then (
      match Rng.int rng 4 with
      | 0 -> withdraw_storm ~flap:false
      | 1 -> withdraw_storm ~flap:true
      | 2 -> duplicate_train ()
      | _ -> same_prefix_train ())
    else normal_burst ();
    if !updates_done >= !next_checkpoint then begin
      next_checkpoint := !next_checkpoint + config.checkpoint_every;
      run_checkpoint ()
    end
  done;
  (* Bring every flapped session back, then always verify the final
     state against a from-scratch recompile. *)
  while not (Queue.is_empty pending) do
    let _, us = Queue.pop pending in
    handle us
  done;
  run_checkpoint ();
  let elapsed = Unix.gettimeofday () -. t0 in
  let vnh = Vnh.stats (Runtime.vnh runtime) in
  let churn = Runtime.churn runtime in
  {
    soak_updates = !updates_done;
    soak_bursts = !bursts;
    soak_withdraw_storms = !storms;
    soak_session_flaps = !flaps;
    soak_duplicate_trains = !dup_trains;
    soak_same_prefix_trains = !prefix_trains;
    soak_checkpoints = !checkpoints;
    soak_check_errors = !check_errors;
    soak_incremental_checks = !incr_checks;
    soak_incremental_errors = !incr_errors;
    soak_commits = !commits;
    soak_commit_errors = !commit_errors;
    soak_equiv_divergences = !equiv;
    soak_reoptimizations = Runtime.reoptimize_count runtime;
    soak_vnh_reclaimed = vnh.Vnh.reclaimed_total;
    soak_vnh_peak_live = vnh.Vnh.peak_live;
    soak_vnh_capacity = vnh.Vnh.capacity;
    soak_peak_extra_rules = !peak_extras;
    soak_peak_fastpath_blocks = !peak_blocks;
    soak_groups_minted = churn.Runtime.churn_groups_minted;
    soak_group_migrations = churn.Runtime.churn_prefixes_migrated;
    soak_groups_retired = churn.Runtime.churn_groups_retired;
    soak_retired_tombstones = Runtime.retired_tombstone_count runtime;
    soak_elapsed_s = elapsed;
    soak_updates_per_s =
      (if elapsed > 0. then float_of_int !updates_done /. elapsed else 0.);
  }

let pp_soak_result fmt r =
  Format.fprintf fmt
    "@[<v>updates: %d in %d bursts (%.0f updates/s, %.1f s)@,\
     faults: %d withdraw storms, %d session flaps, %d duplicate trains, \
     %d same-prefix trains@,\
     checkpoints: %d (%d check errors, %d forwarding divergences)@,\
     inline checks: %d (%d errors)@,\
     dataplane commits: %d (%d anomalies)@,\
     re-optimizations: %d@,\
     VNHs: %d reclaimed, peak %d live of %d@,\
     peak fast path: %d rules in %d blocks@,\
     groups: %d minted, %d migrations, %d retired (%d tombstones held)@]"
    r.soak_updates r.soak_bursts r.soak_updates_per_s r.soak_elapsed_s
    r.soak_withdraw_storms r.soak_session_flaps r.soak_duplicate_trains
    r.soak_same_prefix_trains r.soak_checkpoints r.soak_check_errors
    r.soak_equiv_divergences r.soak_incremental_checks r.soak_incremental_errors
    r.soak_commits r.soak_commit_errors
    r.soak_reoptimizations r.soak_vnh_reclaimed
    r.soak_vnh_peak_live r.soak_vnh_capacity r.soak_peak_extra_rules
    r.soak_peak_fastpath_blocks r.soak_groups_minted r.soak_group_migrations
    r.soak_groups_retired r.soak_retired_tombstones
