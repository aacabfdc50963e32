(** The SDX runtime: owns the route server state, the compiled policy,
    and the two-stage incremental update engine of §4.3.2.

    BGP updates take the fast path: the affected prefix gets a fresh VNH
    and only the related policy slice is recompiled and stacked above the
    base rules.  {!reoptimize} is the background stage: it rebuilds
    optimal prefix groups from the fast path's own state and retires the
    stacked rules. *)

open Sdx_net
open Sdx_policy
open Sdx_bgp

type t

val create :
  ?rpki:Rpki.t ->
  ?vnh_pool:Prefix.t ->
  ?extras_ceiling:int ->
  Config.t ->
  t
(** Announces every participant's SDX-originated prefixes to the route
    server, then runs the initial compilation.  When [rpki] is given,
    each originated prefix must validate as [Valid] for its owner
    (§3.2's ownership check); prefixes that fail are not originated and
    a warning is logged.  [vnh_pool] overrides the VNH allocator's
    address pool (soak tests use tiny pools to hit lifecycle boundaries
    quickly), and
    [extras_ceiling] lowers this instance's fast-path priority ceiling
    below the global {!extras_ceiling} for the same reason. *)

val rejected_originations : t -> (Asn.t * Prefix.t) list
(** Originations refused by RPKI validation at creation time. *)

val config : t -> Config.t
val compiled : t -> Compile.t

val classifier : t -> Classifier.t
(** The effective ruleset: incremental rules (most recent first) stacked
    above the base classifier. *)

val provenance : t -> (Compile.provenance * int) list
(** Block structure of {!classifier} — fast-path blocks first, then the
    base compile's blocks — with per-block rule counts summing to the
    classifier length. *)

val extras_bands : t -> (int * int) list
(** [(priority_floor, rule_count)] of each installed fast-path block,
    oldest first. *)

val base_priority_top : int
val extras_floor : int
val extras_ceiling : int
(** The switch priority layout: the base classifier descends from
    {!base_priority_top}; fast-path blocks stack upward from
    {!extras_floor} toward {!extras_ceiling}. *)

val vnh_pressure_threshold : float
(** Live-VNH fraction past which {!handle_burst} triggers the in-place
    background stage, reclaiming the pool before {!Vnh.alloc} could
    report exhaustion mid-burst. *)

val set_check_hook : (t -> unit) option -> unit
(** Installs (or clears) a process-wide post-compile verification hook,
    invoked after {!create}'s initial compilation, after every
    {!reoptimize}, and after each fast-path block install.  Used by the
    [sdx_check] static analyzer; the hook must not mutate the runtime. *)

val flows : t -> Sdx_openflow.Flow.t list
(** The same ruleset as prioritized OpenFlow entries, with a stable
    layout: the base classifier descends from priority max(30,000, its
    rule count) and each
    fast-path block keeps the priorities it was assigned when installed
    (new blocks stack above older ones) — so successive calls differ only
    in the entries an update actually touched, and a fabric commit
    sends minimal flow-mods.  Until the
    base classifier is recompiled, its entries are the same values from
    call to call, so a diff can compare them physically first.  When the
    fast-path priority space fills up, {!handle_update} re-optimizes
    automatically. *)

val base_rule_count : t -> int
val extra_rule_count : t -> int
(** Rules added by the fast path since the last {!reoptimize} — the
    quantity Figure 9 plots. *)

val rule_count : t -> int
val group_count : t -> int
val arp : t -> Sdx_arp.Responder.t

val announcement : t -> receiver:Asn.t -> Prefix.t -> Route.t option
(** What the SDX advertises to [receiver] (VNH-rewritten best route),
    reflecting all updates processed so far. *)

val announced : t -> Prefix.t -> Route.t -> Route.t
(** {!announcement}'s next-hop rewrite on its own: a best route for the
    prefix as the SDX re-advertises it to any receiver it is best for. *)

type update_stats = {
  update : Update.t;
  best_changed : bool;  (** whether any participant's best route moved *)
  processing_s : float;  (** fast-path handling time — Figure 10 *)
  extra_rules : int;  (** rules the fast path added for this update *)
}

val handle_update : t -> Update.t -> update_stats
(** A one-update {!handle_burst}. *)

val handle_burst : t -> Update.t list -> update_stats list
(** Applies every update to the route server, then compiles {e one}
    fast-path block for all prefixes whose best route moved (via
    {!Compile.compile_update_batch}) and installs it as a single
    priority band.  Updates to the same prefix within the burst are
    coalesced into one rule slice reflecting the final route state.
    [extra_rules] of the first best-changing update carries the block's
    rule count; later updates in the burst report 0, so the sum over the
    burst equals the installed rules.

    Never raises and never leaves RIB and data plane divergent: an
    exhausted VNH pool falls forward into {!reoptimize} and a
    batch-compiler failure into a full recompile (the route server
    already holds the burst, so either lands on the post-update state),
    a burst that would cross the priority ceiling re-optimizes in place,
    a burst that leaves the VNH pool past {!vnh_pressure_threshold} does
    the same before the pool can run dry, and so does a burst that moves
    the best route a [Default] clause's rewritten destination resolves
    through. *)

val fast_path_block_count : t -> int
(** Number of fast-path blocks currently stacked above the base
    classifier — one per burst with best-route changes since the last
    {!reoptimize}. *)

val vnh : t -> Vnh.t
(** The runtime's VNH allocator (pressure and reclamation are soak-test
    observables). *)

val reoptimize_count : t -> int
(** Background-stage runs since creation, whether explicit
    ({!reoptimize}, {!set_policies}) or triggered by the degradation
    ladder (priority ceiling, VNH pressure, fast-path fallback, band
    overlap, a moved [Default] rewrite). *)

val last_reoptimize_seconds : t -> float
(** Wall time of the latest background-stage run, end to end (the
    [sdx_runtime_reoptimize_seconds] observation); 0 before the first. *)

type churn = {
  churn_groups_minted : int;
      (** groups minted by fast-path bursts since creation *)
  churn_prefixes_migrated : int;
      (** prefixes rebound into an already-interned class — the bursts
          that cost zero rules *)
  churn_groups_retired : int;
      (** fast-path groups fully superseded (VNH released, ARP entry
          removed) *)
}

val churn : t -> churn
(** Cumulative fast-path churn accounting.  Survives re-optimization:
    these totals describe the update workload, not the current table. *)

val retired_tombstone_count : t -> int
(** Retired-group tombstones currently held for provenance attribution.
    The runtime compacts the list after every block install
    ({!Compile.compact_retired}), keeping only tombstones some installed
    fast-path block still names, so this stays bounded by the live
    extras stack rather than growing with total churn. *)

val reoptimize : t -> Compile.stats
(** Background re-optimization ({!Compile.rebuild}): re-keys every prefix
    an update reached since the last build, folds the fast-path classes
    into the base classifier, drops empty classes and mints only classes
    whose key is new, and clears the incremental rule stack; then
    finishes the major GC cycle at a fixed point of the update stream.
    The base classifier equals a fresh {!Compile.compile} of the same
    route-server state up to renaming group ids, VNHs and VMACs, and a
    class that survives keeps its VNH and VMAC.  Returns the rebuild's
    own stats. *)

val set_policies :
  t -> Asn.t -> inbound:Ppolicy.t -> outbound:Ppolicy.t -> Compile.stats
(** A participant (re)installs its SDX application: policies are
    replaced, everything is recompiled from scratch over a reset VNH
    pool, and BGP state is untouched — §4.3 treats policy changes as
    full recompilations since they are far rarer than BGP updates.
    @raise Invalid_argument if the new policies fail validation. *)

val announce : t -> peer:Asn.t -> port:int -> ?as_path:Asn.t list -> Prefix.t -> update_stats
(** Convenience wrapper building the announcement route from the
    participant's port and running it through {!handle_update}. *)

val withdraw : t -> peer:Asn.t -> Prefix.t -> update_stats

(** {2 Dirty-sets for incremental verification}

    Every fast-path block install records which classifier rules and
    provenance groups the burst may have re-obligated, so a checker can
    re-verify just those instead of the whole table (the Prelude-style
    incremental protocol — see DESIGN.md). *)

type dirty = {
  dirty_rules : int list;
      (** indices into {!classifier} of rules installed since the last
          {!consume_dirty} (new blocks head the classifier, so earlier
          dirty indices are shifted up as later blocks stack) *)
  dirty_groups : int list;
      (** provenance group ids whose obligations may have changed: the
          bursts' fresh groups plus each touched prefix's previous
          owner; may contain duplicates *)
}

val last_dirty : t -> dirty option
(** Cumulative dirty-set since the last {!consume_dirty}.  [None] means
    the whole table was rebuilt (creation, {!reoptimize}, fast-path
    fallback) since then, so only a full check is sound; [None] stays
    until consumed even if further blocks stack on top. *)

val consume_dirty : t -> dirty option
(** {!last_dirty}, then reset the accumulator to the empty dirty-set on
    the assumption that the caller now verifies the current state
    (incrementally from [Some], or with a full pass from [None]). *)
