open Sdx_net
open Sdx_policy
open Sdx_bgp

type t = {
  mutable config : Config.t;
  vnh : Vnh.t;
  mutable compiled : Compile.t;
  (* Fast-path rule blocks, most recent first, each with the stable
     switch priority of its lowest rule and the provenance of its rules.
     Floors only grow, so installing a new block never renumbers older
     rules — a BGP update translates to a handful of flow-mods, not a
     table rewrite. *)
  mutable extras : (Classifier.t * int * (Compile.provenance * int) list) list;
  rejected : (Asn.t * Prefix.t) list;
  ceiling : int;  (* per-instance fast-path priority ceiling *)
  mutable reoptimizes : int;
  mutable last_reoptimize_s : float;  (* wall time of the latest run *)
  (* Cumulative fast-path churn since [create]: groups minted by bursts,
     prefixes migrated into already-interned classes (no rules emitted),
     and groups retired.  Survives re-optimization — these describe the
     workload, not the current table. *)
  mutable churn_minted : int;
  mutable churn_migrated : int;
  mutable churn_retired : int;
  (* Cumulative dirty-set of fast-path block installs since the last
     [consume_dirty], for incremental verification; [None] whenever the
     whole table was rebuilt (create/reoptimize/fallback) since then, in
     which case only a full check applies.  [None] is sticky until
     consumed: blocks stacked on top of an unverified rebuild are
     covered by the pending full check. *)
  mutable last_dirty : dirty option;
  (* The base band's flows as [flows] last laid them out, with the
     classifier (compared physically: classifiers are immutable) and top
     priority they came from, so unchanged rules stay the same values
     from call to call. *)
  mutable base_flows : (Classifier.t * int * Sdx_openflow.Flow.t list) option;
  (* Every prefix an update reached since the last build, whether or not
     its best route moved: the prefixes whose class key may have changed,
     which [reoptimize] re-keys. *)
  touched : (Prefix.t, unit) Hashtbl.t;
}

and dirty = {
  dirty_rules : int list;
      (* indices into [classifier t] of the rules those bursts installed *)
  dirty_groups : int list;
      (* provenance group ids whose obligations those bursts may have
         changed (fresh groups + superseded previous owners) *)
}

(* Switch priority layout: the base classifier descends from
   [base_priority_top]; fast-path blocks stack upward from
   [extras_floor]; when they would reach the ceiling (the global
   [extras_ceiling], unless [create] was given a lower one) the runtime
   forces the background re-optimization. *)
let base_priority_top = 30_000
let extras_floor = 40_000
let extras_ceiling = 65_000

(* Live-VNH fraction past which a burst triggers the in-place background
   stage: re-optimizing at 80% reclaims the whole pool long before
   [Vnh.alloc] could report exhaustion mid-burst. *)
let vnh_pressure_threshold = 0.8

let log_src = Logs.Src.create "sdx.runtime" ~doc:"SDX runtime"

module Log = (val Logs.src_log log_src : Logs.LOG)

type update_stats = {
  update : Update.t;
  best_changed : bool;
  processing_s : float;
  extra_rules : int;
}

module Obs = struct
  open Sdx_obs.Registry

  let bursts = counter "sdx_runtime_bursts_total"
  let updates = counter "sdx_runtime_updates_total"
  let best_changed = counter "sdx_runtime_best_changed_total"

  (* End-to-end fast-path latency per burst: route-server apply + batch
     compile + block install — the §5.2 "fast path" quantity. *)
  let burst_seconds = histogram "sdx_runtime_burst_seconds"

  (* Updates whose prefix was folded into an earlier update of the same
     burst (burst size minus distinct changed prefixes). *)
  let coalesced = counter "sdx_runtime_coalesced_updates_total"
  let fastpath_blocks = gauge "sdx_runtime_fastpath_blocks"
  let extra_rules = gauge "sdx_runtime_extra_rules"
  let reoptimizations = counter "sdx_runtime_reoptimize_total"
  let reoptimize_seconds = histogram "sdx_runtime_reoptimize_seconds"

  (* The degradation ladder: bursts abandoned into a full recompile
     (pool exhausted mid-burst or the batch compiler failed), VNH
     pressure crossings, and base classifiers grown into the fast-path
     band — each rung trades fast-path latency for a consistent table
     instead of crashing or emitting overlapping priorities. *)
  let fastpath_fallbacks = counter "sdx_runtime_fastpath_fallback_total"

  let pressure_reoptimizations =
    counter "sdx_runtime_vnh_pressure_reoptimize_total"

  let overlap_reoptimizations =
    counter "sdx_runtime_band_overlap_reoptimize_total"

  let vnh_live = gauge "sdx_runtime_vnh_live"
  let vnh_reclaimed = gauge "sdx_runtime_vnh_reclaimed_total"
end

(* Placeholder next hop for SDX-originated prefixes: it resolves to no
   fabric port, so the compiler treats those prefixes as SDX-terminated
   and the route server still has a syntactically valid route. *)
let originated_next_hop = Ipv4.of_string "0.0.0.1"

let announce_originated ?rpki config =
  let server = Config.server config in
  List.fold_left
    (fun rejected (p : Participant.t) ->
      List.fold_left
        (fun rejected prefix ->
          let authorized =
            match rpki with
            | None -> true
            | Some table -> Rpki.validate_origin table ~prefix p.asn = Rpki.Valid
          in
          if authorized then begin
            let route =
              Route.make ~prefix ~next_hop:originated_next_hop
                ~as_path:[ p.asn ] ~learned_from:p.asn ()
            in
            ignore (Route_server.apply server (Update.announce route));
            rejected
          end
          else begin
            Log.warn (fun m ->
                m "refusing to originate %a for %a: RPKI validation failed"
                  Prefix.pp prefix Asn.pp p.asn);
            (p.asn, prefix) :: rejected
          end)
        rejected p.originated)
    []
    (Config.participants config)

(* A post-compile verification pass (installed by [Sdx_check]); invoked
   after the initial compilation, after every re-optimization, and after
   each fast-path block install.  Kept as a hook so [sdx_core] need not
   depend on the checker. *)
let check_hook : (t -> unit) option ref = ref None
let set_check_hook f = check_hook := f

let run_check_hook t =
  match !check_hook with None -> () | Some f -> f t

let create ?rpki ?vnh_pool ?(extras_ceiling = extras_ceiling) config =
  let rejected = announce_originated ?rpki config in
  let vnh = Vnh.create ?pool:vnh_pool () in
  let compiled = Compile.compile config vnh in
  let t =
    {
      config;
      vnh;
      compiled;
      extras = [];
      rejected;
      ceiling = extras_ceiling;
      reoptimizes = 0;
      last_reoptimize_s = 0.;
      churn_minted = 0;
      churn_migrated = 0;
      churn_retired = 0;
      last_dirty = None;
      base_flows = None;
      touched = Hashtbl.create 64;
    }
  in
  run_check_hook t;
  t

let rejected_originations t = t.rejected

let config t = t.config
let compiled t = t.compiled

let classifier t =
  List.concat
    (List.rev_append
       (List.rev_map (fun (c, _, _) -> c) t.extras)
       [ Compile.classifier t.compiled ])

let provenance t =
  List.concat_map (fun (_, _, provs) -> provs) t.extras
  @ Compile.provenance t.compiled

let extras_bands t =
  List.rev_map (fun (c, floor, _) -> (floor, Classifier.rule_count c)) t.extras

let base_rule_count t = Classifier.rule_count (Compile.classifier t.compiled)

let extra_rule_count t =
  List.fold_left (fun n (c, _, _) -> n + Classifier.rule_count c) 0 t.extras

let rule_count t = base_rule_count t + extra_rule_count t

(* The background stage, around whichever build [build] runs: the
   fast-path stack is folded into the new base classifier and dropped,
   and the call ends with a major GC cycle. *)
let background_stage t build =
  let t0 = Unix.gettimeofday () in
  t.last_dirty <- None;
  let stats = build () in
  Hashtbl.reset t.touched;
  t.base_flows <- None;
  t.extras <- [];
  t.reoptimizes <- t.reoptimizes + 1;
  Sdx_obs.Registry.Counter.incr Obs.reoptimizations;
  Sdx_obs.Registry.Gauge.set_int Obs.fastpath_blocks 0;
  Sdx_obs.Registry.Gauge.set_int Obs.extra_rules 0;
  Sdx_obs.Registry.Gauge.set_int Obs.vnh_live (Vnh.allocated t.vnh);
  Sdx_obs.Registry.Gauge.set_int Obs.vnh_reclaimed (Vnh.reclaimed_total t.vnh);
  run_check_hook t;
  (* Finish the major cycle at a fixed point of the update stream.  Left
     to the allocation-paced collector, where the cycle ends relative to
     the next allocation peak varies from run to run: replaying the
     perfbench churn feed on a 2-core host, ten seeds read a peak RSS of
     68 MB with this and 122-126 MB without.  It is most of what a
     re-optimization costs at 300x10k, about 22 of 23 ms: the rebuild
     before it takes under a millisecond. *)
  Gc.major ();
  t.last_reoptimize_s <- Unix.gettimeofday () -. t0;
  Sdx_obs.Registry.Histogram.observe Obs.reoptimize_seconds t.last_reoptimize_s;
  stats

(* A from-scratch compile over a reset VNH pool: the initial build's
   pipeline, for policy changes and compiler failures. *)
let full_recompile t =
  background_stage t (fun () ->
      Vnh.reset t.vnh;
      t.compiled <- Compile.compile t.config t.vnh;
      Compile.stats t.compiled)

let reoptimize t =
  background_stage t (fun () ->
      Compile.rebuild t.compiled t.config t.vnh
        ~touched:(Hashtbl.fold (fun p () acc -> p :: acc) t.touched []))

let rec flows t =
  let base_cls = Compile.classifier t.compiled in
  let count = Classifier.rule_count base_cls in
  (* The base band holds ~30k rules; a bigger table pushes its top up
     (one large resync) rather than wrapping priorities below zero. *)
  let top = max base_priority_top count in
  if top >= extras_floor && t.extras <> [] then begin
    (* The base classifier grew into the fast-path band while blocks are
       stacked there: emitting both would hand the switch overlapping
       priorities with undefined match order.  Re-optimize in place —
       that folds the blocks back into the base table — and lay the
       flows out again.  The recursion terminates because the second
       pass finds no extras. *)
    Log.warn (fun m ->
        m
          "base classifier (%d rules) overlaps the fast-path priority \
           band; re-optimizing in place"
          count);
    Sdx_obs.Registry.Counter.incr Obs.overlap_reoptimizations;
    ignore (reoptimize t);
    flows t
  end
  else begin
    if top >= extras_floor then
      Log.warn (fun m ->
          m "base classifier (%d rules) overlaps the fast-path priority band"
            count);
    let base =
      match t.base_flows with
      | Some (cls, top', base) when cls == base_cls && top' = top -> base
      | _ ->
          let base = Sdx_openflow.Flow.of_classifier ~base_priority:top base_cls in
          t.base_flows <- Some (base_cls, top, base);
          base
    in
    let extra_flows =
      List.concat_map
        (fun (block, floor, _) ->
          Sdx_openflow.Flow.of_classifier
            ~base_priority:(floor + Classifier.rule_count block - 1)
            block)
        t.extras
    in
    extra_flows @ base
  end

let group_count t = List.length (Compile.groups t.compiled)
let arp t = Compile.arp t.compiled
let announcement t ~receiver prefix = Compile.announcement t.compiled t.config ~receiver prefix
let announced t prefix route = Compile.announced t.compiled prefix route

let next_extras_floor t =
  match t.extras with
  | [] -> extras_floor
  | (block, floor, _) :: _ -> floor + Classifier.rule_count block

(* The fast path could not serve this burst — the VNH pool ran dry
   mid-reservation, or the batch compiler failed outright.  The route
   server has already absorbed the updates, so the only safe direction
   is forward: a rebuild reads the post-update RIBs and lays out a
   consistent table (the batch compiler is transactional, so no
   half-installed state needs undoing).  A compiler failure distrusts
   the state the rebuild would start from, so it compiles from
   scratch. *)
let fallback t reason ~recompile =
  Log.warn (fun m ->
      m "fast path abandoned (%s); falling forward into a %s" reason
        (if recompile then "full recompile" else "re-optimization"));
  Sdx_obs.Registry.Counter.incr Obs.fastpath_fallbacks;
  ignore (if recompile then full_recompile t else reoptimize t)

(* A burst is handled as a unit: every update is applied to the route
   server first, then the prefixes whose best route moved go through one
   [Compile.compile_update_batch], and the burst installs exactly one
   fast-path block.  Multiple updates to the same prefix therefore cost
   one rule slice (the final state), not one stacked block each. *)
let handle_burst t updates =
  let t0 = Unix.gettimeofday () in
  let changes =
    List.map
      (fun u ->
        let c = Route_server.apply (Config.server t.config) u in
        Hashtbl.replace t.touched c.Route_server.prefix ();
        (u, c))
      updates
  in
  let changed_prefixes =
    (* Burst-internal duplicates are coalesced again by the batch
       compiler; this keeps first-occurrence order.  A prefix needs
       re-batching when its best path moved for anyone, and also when the
       updating peer is a policy diversion target ([fwd(AS)]): diversions
       follow that peer's own (possibly non-best) route, so its
       withdrawal or path change alters diversion feasibility without
       moving any best path. *)
    List.filter_map
      (fun ((u, c) : _ * Route_server.change) ->
        if
          c.best_changed_for <> []
          || Compile.diverts_via t.compiled (Update.peer u)
        then Some c.prefix
        else None)
      changes
  in
  let installed =
    match changed_prefixes with
    | [] -> 0
    | prefixes when Compile.rewrites_into t.compiled prefixes ->
        (* A [Default] clause resolves its rewritten destination through
           a route this burst moved: the blocks built on it are stale,
           and the fast path only composes the burst's own classes. *)
        Log.info (fun m ->
            m "burst moves a rewritten destination; re-optimizing in place");
        ignore (reoptimize t);
        0
    | prefixes -> (
        match
          Compile.compile_update_batch t.compiled t.config t.vnh prefixes
        with
        | exception exn ->
            fallback t (Printexc.to_string exn) ~recompile:true;
            0
        | Error `Vnh_exhausted ->
            fallback t "VNH pool exhausted" ~recompile:false;
            0
        | Ok batch ->
            let floor = next_extras_floor t in
            t.extras <-
              (batch.batch_rules, floor, batch.batch_provenance) :: t.extras;
            t.churn_minted <-
              t.churn_minted + List.length batch.Compile.batch_groups;
            t.churn_migrated <- t.churn_migrated + batch.Compile.batch_migrated;
            t.churn_retired <- t.churn_retired + batch.Compile.batch_retired;
            (* Cap the tombstone list: only retired groups still named by
               an installed block's provenance need to stay resolvable
               (base-compile groups never retire, so scanning the extras
               blocks is enough). *)
            let live =
              List.concat_map
                (fun (_, _, provs) ->
                  List.filter_map
                    (fun ((p : Compile.provenance), _) ->
                      match p with
                      | Compile.Outbound { group; _ } -> group
                      | Compile.Group_default { group } -> Some group
                      | Compile.Untagged _ | Compile.Catch_all
                      | Compile.Unattributed ->
                          None)
                    provs)
                t.extras
            in
            ignore (Compile.compact_retired t.compiled ~live);
            let count = Classifier.rule_count batch.batch_rules in
            (* The new block heads [classifier t], so its rules occupy
               global indices 0..count-1 and every previously dirty rule
               shifts up by [count]. *)
            (match t.last_dirty with
            | None -> ()  (* pending full check covers this block too *)
            | Some prev ->
                t.last_dirty <-
                  Some
                    {
                      dirty_rules =
                        List.init count Fun.id
                        @ List.map (fun i -> i + count) prev.dirty_rules;
                      dirty_groups =
                        batch.Compile.batch_touched_groups @ prev.dirty_groups;
                    });
            (* Priority space exhausted: run the background stage now. *)
            if floor + count >= t.ceiling then begin
              Log.info (fun m ->
                  m "fast-path priority space exhausted; re-optimizing in place");
              ignore (reoptimize t)
            end
            else if Vnh.pressure t.vnh >= vnh_pressure_threshold then begin
              (* Reclaim the pool before a later burst can hit
                 exhaustion mid-flight. *)
              Log.info (fun m ->
                  m
                    "VNH pool at %.0f%% (%d/%d live); re-optimizing before \
                     exhaustion"
                    (100. *. Vnh.pressure t.vnh)
                    (Vnh.allocated t.vnh) (Vnh.capacity t.vnh));
              Sdx_obs.Registry.Counter.incr Obs.pressure_reoptimizations;
              ignore (reoptimize t)
            end
            else run_check_hook t;
            count)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let n_updates = List.length updates in
  let n_changed = List.length changed_prefixes in
  let distinct_changed =
    Prefix.Set.cardinal (Prefix.Set.of_list changed_prefixes)
  in
  Sdx_obs.Registry.Counter.incr Obs.bursts;
  Sdx_obs.Registry.Counter.add Obs.updates n_updates;
  Sdx_obs.Registry.Counter.add Obs.best_changed n_changed;
  Sdx_obs.Registry.Counter.add Obs.coalesced (n_changed - distinct_changed);
  Sdx_obs.Registry.Histogram.observe Obs.burst_seconds elapsed;
  Sdx_obs.Registry.Gauge.set_int Obs.fastpath_blocks (List.length t.extras);
  Sdx_obs.Registry.Gauge.set_int Obs.extra_rules (extra_rule_count t);
  Sdx_obs.Registry.Gauge.set_int Obs.vnh_live (Vnh.allocated t.vnh);
  Sdx_obs.Registry.Gauge.set_int Obs.vnh_reclaimed (Vnh.reclaimed_total t.vnh);
  Sdx_obs.Trace.record ~name:"handle_burst" ~start_s:t0 ~dur_s:elapsed
    ~attrs:
      [
        ("updates", string_of_int n_updates);
        ("changed", string_of_int n_changed);
        ("installed_rules", string_of_int installed);
      ]
    ();
  let per_update_s = elapsed /. float_of_int (max 1 n_updates) in
  (* The block belongs to the burst, not any one update; attribute its
     rules to the first best-changing update so that summing
     [extra_rules] over the burst still counts each installed rule
     once. *)
  let first = ref true in
  List.map
    (fun ((update, c) : _ * Route_server.change) ->
      let best_changed = c.best_changed_for <> [] in
      let extra_rules =
        if best_changed && !first then begin
          first := false;
          installed
        end
        else 0
      in
      { update; best_changed; processing_s = per_update_s; extra_rules })
    changes

let handle_update t update =
  match handle_burst t [ update ] with
  | [ stats ] -> stats
  | _ -> assert false

let fast_path_block_count t = List.length t.extras
let vnh t = t.vnh
let reoptimize_count t = t.reoptimizes
let last_reoptimize_seconds t = t.last_reoptimize_s

type churn = {
  churn_groups_minted : int;
  churn_prefixes_migrated : int;
  churn_groups_retired : int;
}

let churn t =
  {
    churn_groups_minted = t.churn_minted;
    churn_prefixes_migrated = t.churn_migrated;
    churn_groups_retired = t.churn_retired;
  }

let retired_tombstone_count t = List.length (Compile.retired_groups t.compiled)

let set_policies t asn ~inbound ~outbound =
  let config =
    Config.with_policies t.config (fun (p : Participant.t) ->
        if Asn.equal p.asn asn then (inbound, outbound) else (p.inbound, p.outbound))
  in
  t.config <- config;
  (* Policy changes take the slow path (§4.3 tunes the incremental
     engine for BGP updates, which are far more frequent): new clauses
     mean new class keys, so nothing stored survives. *)
  full_recompile t

let announce t ~peer ~port ?as_path prefix =
  let p = Config.participant t.config peer in
  let port = Participant.port p port in
  let as_path = Option.value as_path ~default:[ peer ] in
  let route = Route.make ~prefix ~next_hop:port.ip ~as_path ~learned_from:peer () in
  handle_update t (Update.announce route)

let withdraw t ~peer prefix = handle_update t (Update.withdraw ~peer prefix)

(* ------------------------------------------------------------------ *)
(* Dirty-set accessors for incremental verification                     *)

let no_dirty = { dirty_rules = []; dirty_groups = [] }
let last_dirty t = t.last_dirty

let consume_dirty t =
  let d = t.last_dirty in
  (* Whatever the caller now verifies (incrementally from [Some d], or a
     full pass from [None]) covers the state as of this call. *)
  t.last_dirty <- Some no_dirty;
  d
