(** Replay a BGP update trace through a live SDX runtime — the
    end-to-end version of the §4.3.2 evaluation: every burst takes the
    fast path (fresh VNH, delta rules stacked at higher priority), and
    the background re-optimization runs whenever the trace goes quiet,
    exactly the two-stage strategy the paper describes ("BGP bursts are
    separated by large periods with no changes, enabling quick,
    suboptimal reactions followed by background re-optimization"). *)


type result = {
  bursts : int;
  updates : int;
  best_changed : int;  (** updates that actually moved a best route *)
  reoptimizations : int;  (** background-stage runs triggered by quiet gaps *)
  peak_extra_rules : int;  (** worst fast-path rule overhead seen *)
  final_rules : int;
  mean_update_ms : float;
  p99_update_ms : float;
  max_update_ms : float;
}

val run :
  ?quiet_gap_s:float ->
  Sdx_core.Runtime.t ->
  Trace.t ->
  result
(** Processes the trace in burst order.  A gap of at least [quiet_gap_s]
    simulated seconds (default 60, the paper's median burst
    inter-arrival) between bursts triggers the background
    re-optimization. *)

val trace_for_workload :
  Rng.t -> Workload.t -> profile:Trace.profile -> duration_s:float -> Trace.t
(** A trace targeting an existing workload: updates come from the
    workload's own participants (with winning local preferences, so
    best paths actually move) and touch its announced prefixes. *)

val pp_result : Format.formatter -> result -> unit

(** {1 Churn soak}

    Unbounded synthetic churn with injected faults — the harness behind
    [bench soak].  Where {!run} replays a realistic trace, {!soak}
    deliberately drives the runtime into its degradation ladder:
    withdraw storms and session flaps drain and refill the RIBs,
    duplicate trains stress burst coalescing, and pathological
    same-prefix trains mint a VNH per burst until the lifecycle manager
    must reclaim or re-optimize.  At checkpoints the live state is
    verified against a from-scratch recompile. *)

type delivery =
  | No_route
  | Unresolved
      (** announced next hop has no ARP binding — always a bug *)
  | No_match  (** tagged probe fell through the classifier *)
  | Delivered of Sdx_policy.Mods.t list

val forwarding_divergences :
  Sdx_core.Runtime.t ->
  reference:Sdx_core.Runtime.t ->
  (Sdx_bgp.Asn.t * Sdx_net.Prefix.t) list
(** For every (participant with switch ports, announced prefix) pair,
    resolves the end-to-end delivery — BGP announcement, ARP resolution
    of the announced next hop, flow-table lookup of the tagged probe —
    in both runtimes and reports the pairs whose deliveries differ.
    VNH identities are expected to differ between independent compiles;
    the resolved forwarding actions must not.  Empty iff the fast path
    is equivalent to the reference's from-scratch compile. *)

type soak_config = {
  target_updates : int;
  checkpoint_every : int;
  fault_every : int;  (** bursts between injected faults *)
  storm_size : int;  (** prefixes withdrawn per storm / session flap *)
  train_length : int;  (** updates per duplicate / same-prefix train *)
  max_burst : int;  (** normal-traffic burst size cap *)
  check_every : int;
      (** bursts between inline incremental checks via the
          [check_incremental] callback (0 = disabled); 1 verifies every
          burst commit *)
}

val default_soak_config : soak_config
(** 1M updates, checkpoints every 100k, a fault every 25 bursts,
    inline checks on every burst ([check_every = 1], a no-op unless a
    [check_incremental] callback is supplied). *)

type soak_result = {
  soak_updates : int;
  soak_bursts : int;
  soak_withdraw_storms : int;
  soak_session_flaps : int;
  soak_duplicate_trains : int;
  soak_same_prefix_trains : int;
  soak_checkpoints : int;
  soak_check_errors : int;  (** error findings across all checkpoints *)
  soak_incremental_checks : int;
      (** inline per-burst checks run via [check_incremental] *)
  soak_incremental_errors : int;
      (** error findings across all inline checks *)
  soak_commits : int;  (** data-plane commits via the [on_commit] hook *)
  soak_commit_errors : int;
      (** anomalies those commits exposed (e.g. mixed-version packets
          in a sharded fabric) *)
  soak_equiv_divergences : int;
      (** forwarding divergences vs. from-scratch recompiles *)
  soak_reoptimizations : int;
  soak_reoptimize_p50_s : float;
      (** median wall time of the background-stage runs during the soak
          (0 when none ran) *)
  soak_reoptimize_max_s : float;
  soak_vnh_reclaimed : int;
  soak_vnh_peak_live : int;
  soak_vnh_capacity : int;
  soak_peak_extra_rules : int;
  soak_peak_fastpath_blocks : int;
  soak_groups_minted : int;  (** groups minted by fast-path bursts *)
  soak_group_migrations : int;
      (** prefixes rebound into an already-interned class (zero rules) *)
  soak_groups_retired : int;  (** fast-path groups fully superseded *)
  soak_retired_tombstones : int;
      (** retired-group tombstones still held at the end — bounded by
          the live extras stack, not by total churn *)
  soak_elapsed_s : float;
  soak_updates_per_s : float;
}

val soak :
  ?config:soak_config ->
  ?check:(Sdx_core.Runtime.t -> int) ->
  ?check_incremental:(Sdx_core.Runtime.t -> int) ->
  ?on_commit:(unit -> int) ->
  Rng.t ->
  Workload.t ->
  Sdx_core.Runtime.t ->
  soak_result
(** Drives [runtime] with churn until [target_updates] updates have been
    handled.  [check], called at every checkpoint and once at the end,
    returns the number of error findings (the bench wires in the
    [sdx_check] analyzer here; the library carries no dependency on it).
    [check_incremental], called after every [check_every]-th burst
    commit, is expected to consume the runtime's dirty-set
    ({!Sdx_core.Runtime.consume_dirty}) and verify just the touched
    obligations — the bench wires in [Check.runtime_incremental], which
    falls back to a full pass after table rebuilds.  [on_commit], called
    after every burst, pushes the new ruleset into a live data plane and
    returns the anomalies observed — the sharded soak wires in a
    two-phase fabric commit plus mid-phase probe traffic, keeping this
    library free of any fabric dependency.  Withdrawn sessions are
    restored before the mandatory final checkpoint, so the result
    reflects a settled table. *)

val pp_soak_result : Format.formatter -> soak_result -> unit
