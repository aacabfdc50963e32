(** The SDX policy compiler (§4): from participant policies plus the
    current BGP routes to a single classifier for the fabric switch,
    together with the VNH assignment, ARP bindings, and re-advertised
    routes.

    The compiled classifier has three layers, first-match-wins:
    participant policy rules (matching the sender's in-port and the
    virtual MAC tag), default-forwarding rules (matching the destination
    MAC only), and a final drop.  Participant [Drop] clauses compile to
    forwards to {!blackhole_port}, so that an explicit drop is
    distinguishable from fall-through to default forwarding. *)

open Sdx_net
open Sdx_policy
open Sdx_bgp

val blackhole_port : int
(** Reserved output port (0) that the fabric discards. *)

type group = {
  id : int;
  vnh : Ipv4.t;
  vmac : Mac.t;
  mutable prefixes : Prefix.t list;
      (** live membership, in prefix order — the incremental fast path
          splices prefixes in and out as they migrate between classes *)
  default_variants : (Ipv4.t option * Asn.t list) list;
      (** the best-route next hop shared by each listed set of receivers;
          [None] means those receivers have no resolvable next hop (e.g.
          SDX-originated prefixes, which are terminated by the owner's
          inbound policy) *)
}

type stats = {
  group_count : int;
  rule_count : int;
  elapsed_s : float;  (** wall-clock compilation time *)
  compose_s : float;
      (** wall-clock of the composition stage alone — rule-block fan-out
          plus the shard-merge pass.  This is the stage the two [ir]
          engines implement differently (group computation, reachability
          collection, and ARP registration are engine-independent), so
          FDD-vs-crossproduct comparisons divide these *)
  reachability_s : float;
      (** wall-clock of the per-prefix export-vector (reachability)
          pass — under naive grouping, of forcing the per-spec
          reachability sets *)
  group_s : float;
      (** wall-clock of the grouping pass proper (vector interning and
          VNH assignment, or the [Fec] partition) *)
  seq_ops : int;  (** sequential compositions performed (either IR) *)
  memo_hits : int;  (** §4.3: reuses of a cached pipeline compilation *)
  fdd_build_s : float;
      (** CPU-seconds constructing diagrams, summed over shards (zero in
          crossproduct/naive mode, like every field below) *)
  fdd_merge_s : float;
      (** wall-clock of the final shard-merge hash-cons pass *)
  fdd_extract_s : float;
      (** CPU-seconds extracting classifiers from diagrams, summed over
          shards *)
  fdd_nodes : int;  (** nodes in the merged main manager *)
  fdd_memo_hits : int;  (** FDD memo-cache hits, summed over shards *)
  fdd_table_size : int;  (** unique-table entries in the main manager *)
}

type provenance =
  | Outbound of { sender : Asn.t; via : Asn.t option; group : int option }
      (** rules compiled from [sender]'s outbound policy; [via] is the
          peer whose inbound pipeline the rules hand traffic to
          ([None] for direct clauses: Drop / Phys / Default-with-rewrite
          / Redirect), [group] the prefix group the VMAC tag selects *)
  | Group_default of { group : int }
      (** §4.1 default forwarding for one prefix group *)
  | Untagged of { owner : Asn.t }
      (** MAC-learning layer for [owner]'s real interface MACs *)
  | Catch_all  (** the final drop-all rule *)
  | Unattributed  (** naive (ablation) build — no per-rule origin *)

val pp_provenance : Format.formatter -> provenance -> unit

type t

val compile :
  ?optimized:bool ->
  ?memoize:bool ->
  ?ir:[ `Fdd | `Crossproduct ] ->
  ?grouping:[ `Interned | `Naive ] ->
  ?domains:int ->
  Config.t ->
  Vnh.t ->
  t
(** Runs the full pipeline.  [optimized] (default true) enables the
    §4.3.1 optimizations — composing only participants that exchange
    traffic, exploiting policy disjointness, and memoizing repeated
    sub-compilations; [false] compiles the literal
    [(P1 + ... + Pn) >> (P1 + ... + Pn)] composition through the policy
    compiler, for the ablation benchmark.  [memoize] (default true)
    isolates just the sub-compilation cache ("the SDX controller
    memoizes all the intermediate compilation results"), so its
    contribution can be measured separately.

    [ir] selects the composition engine of the optimized path: [`Fdd]
    (the default) builds hash-consed forwarding decision diagrams per
    block and extracts a priority-ordered classifier at the end;
    [`Crossproduct] is the pre-FDD classifier algebra, kept as the
    correctness oracle (see {!compile_crossproduct}).  Both produce
    per-packet-identical classifiers; block boundaries and provenance
    are the same.

    [grouping] selects the prefix-grouping pipeline: [`Interned] (the
    default) builds one packed export vector per prefix and groups by
    interning equal vectors into canonical FEC classes — sub-linear in
    (specs x prefixes) because each diversion target's Adj-RIB-in is
    scanned once for all of its clauses; [`Naive] is the pre-ISSUE-9
    per-spec reachability materialization plus pairwise-signature
    partition, kept as the grouping oracle.  Both produce structurally
    identical groups (same ids, members, VNHs, variants), but only
    [`Interned] seeds the class table the incremental fast path
    migrates prefixes through, and (with [optimized]) keeps the blocks
    {!rebuild} lays out again.

    [domains] controls the pool the independent rule blocks of the
    optimized path are fanned across: [Some 1] forces a fully sequential
    build, [Some n] uses a private n-domain pool for this compilation,
    and [None] (the default) uses {!Parallel.global}.  The classifier is
    rule-for-rule identical for every setting — blocks are pure, FDD
    construction is sharded per domain with deterministic extraction,
    and blocks are concatenated in input order. *)

val compile_crossproduct :
  ?optimized:bool ->
  ?memoize:bool ->
  ?grouping:[ `Interned | `Naive ] ->
  ?domains:int ->
  Config.t ->
  Vnh.t ->
  t
(** [compile ~ir:`Crossproduct]: the sequential cross-product engine the
    FDD core is benchmarked (and property-tested) against. *)

val group_partition_naive : Config.t -> Prefix.t list list
(** The naive grouping pipeline's partition alone (per-spec reachability
    sets + pairwise-signature [Fec] partition), with no VNH draws or
    group records: members sorted by prefix, cells sorted by smallest
    member.  The oracle the bench compares
    [List.map (fun g -> g.prefixes) (groups t)] against, and the timing
    baseline for the grouping speedup. *)

val classifier : t -> Classifier.t
val groups : t -> group list

val all_groups : t -> group list
(** Base-compile groups plus every group minted by the incremental fast
    path since (including retired tombstones, so provenance attribution
    of older fast-path blocks still resolves) — the complete VMAC/VNH
    universe the current classifier can reference. *)

val active_groups : t -> group list
(** Like {!all_groups}, but without retired fast-path groups: exactly
    the groups that own a live VNH and an ARP binding. *)

val retired_groups : t -> group list
(** Fast-path groups whose every member prefix was rebound or withdrawn
    by a later burst: their VNHs have been released and their ARP
    bindings removed, while their (shadowed) rules may linger in older
    fast-path blocks until the next re-optimization. *)

val group_of_prefix : t -> Prefix.t -> group option
val arp : t -> Sdx_arp.Responder.t
val stats : t -> stats

val diverts_via : t -> Sdx_bgp.Asn.t -> bool
(** Whether any participant's outbound policy diverts traffic through
    [via] (a [fwd(AS)] clause).  Updates from such a peer can change
    diversion feasibility without moving any best path, so the runtime
    must re-batch their prefixes too. *)

val provenance : t -> (provenance * int) list
(** Block structure of {!classifier}: [(origin, rule_count)] pairs in
    concatenation order, summing to the classifier length.  Static
    checkers use this to attribute each rule to the policy that produced
    it. *)

val unaggregated_rule_estimate : t -> int
(** What the fabric table would cost {e without} §4.2's VMAC tagging:
    every rule matching a group's virtual MAC becomes one rule per
    prefix in that group (matching the destination prefix instead).
    Comparing this to [stats.rule_count] measures the data-plane
    compression the multi-stage FIB buys. *)

val aggregated_rule_estimate : t -> int
(** Like {!unaggregated_rule_estimate}, but with each group first run
    through conventional prefix aggregation ({!Sdx_net.Aggregate}) — the
    alternative §4.2 dismisses because equivalence classes are rarely
    contiguous.  Comparing the three counts shows aggregation recovers
    little of what VMAC tagging saves. *)

val in_switch_tagging_table : t -> Config.t -> Classifier.t
(** Stage 1 of Figure 2 implemented {e inside} the fabric instead of in
    the border routers: a classifier that tags packets by destination
    prefix (rewriting the destination MAC to the prefix group's VMAC, or
    to the default next hop's real interface MAC for ungrouped
    prefixes) without relocating them — install it in table 0 of a
    two-table switch ahead of the policy classifier, and untagged
    ingress behaves exactly like router-tagged ingress.  It costs one
    rule per announced prefix, which is why the paper offloads it to the
    routers ("we can realize our abstraction without any additional
    table space"). *)

val announcement : t -> Config.t -> receiver:Asn.t -> Prefix.t -> Route.t option
(** The route the SDX re-advertises to [receiver] for [prefix]: the best
    BGP route with the next hop rewritten to the prefix group's VNH; the
    next hop is left unchanged for ungrouped (default-only) prefixes. *)

val fold_announcements :
  t -> Config.t -> receiver:Asn.t -> (Prefix.t -> Route.t -> 'a -> 'a) -> 'a -> 'a

type batch_delta = {
  batch_rules : Classifier.t;
      (** non-total rule list to install above the base classifier as
          one block *)
  batch_groups : group list;  (** the fresh groups, allocation order *)
  batch_provenance : (provenance * int) list;
      (** block structure of [batch_rules], as {!provenance} *)
  batch_retired : int;
      (** fast-path groups the burst fully superseded: their VNHs went
          back to the allocator's free-list and their ARP bindings were
          removed *)
  batch_migrated : int;
      (** prefixes rebound into an already-interned class (from the base
          compile or an earlier burst) instead of minting a VNH: no new
          rules were emitted for them *)
  batch_touched_groups : int list;
      (** dirty-set for incremental verification: ids of every group
          whose obligations this burst may have changed — the fresh
          groups, each migration's target, plus each touched prefix's
          previous owner *)
  batch_elapsed_s : float;
}

val compile_update_batch :
  t ->
  Config.t ->
  Vnh.t ->
  Prefix.t list ->
  (batch_delta, [ `Vnh_exhausted ]) result
(** The fast path for a whole burst (Table 1: most bursts touch ≤3
    prefixes): one {e Default_keys} instance and one route-server pass
    serve every prefix, duplicates are coalesced to their final state,
    and prefixes sharing clause membership and default fingerprint share
    one fresh VNH.  A prefix whose signature is already interned (base
    compile or earlier burst) migrates into that class: a binding rebind
    and membership splice, no VNH draw and no new rules.
    Fully-withdrawn prefixes are unbound instead of grouped, retiring
    their superseded VNHs.  Must be called after the burst's updates
    have been applied to the route server.

    Transactional: [Error `Vnh_exhausted] means the pool could not cover
    the burst and {e nothing} — bindings, groups, ARP entries, allocator
    — was changed; the caller is expected to fall back to a
    re-optimization ({!rebuild}). *)

val compact_retired : t -> live:int list -> int
(** Drops retired-group tombstones whose ids are not in [live] (the
    group ids still referenced by installed provenance blocks) and
    returns how many were dropped.  Never re-registers anything: a
    compacted tombstone's VNH and ARP binding were already released at
    retirement. *)

val rebuild : t -> Config.t -> Vnh.t -> touched:Prefix.t list -> stats
(** The background re-optimization (§4.3.2) from the state the fast path
    keeps, in place: re-keys the [touched] prefixes (every prefix an
    update reached since the last build, whether or not its best route
    moved), ungroups those whose export vector is empty, drops classes
    left without members (VNH released, ARP binding removed), mints a
    class only for a key no live class holds, and lays the base
    classifier out from the stored blocks in {!compile}'s order, with
    the fast-path groups folded in and the tombstones gone.  Only new
    blocks and blocks that resolve a [Default] clause's rewritten
    address inside a touched prefix are composed.  The result equals a
    fresh {!compile} of the same route-server state up to renaming group
    ids, VNHs and VMACs; a class that survives keeps its VNH, VMAC and
    ARP binding.  The returned stats (also {!stats}) describe this
    rebuild alone.
    @raise Invalid_argument unless [t] came from an optimized, interned
    {!compile}.
    @raise Failure when the pool cannot hold every class, as {!compile}
    would. *)

val rewrites_into : t -> Prefix.t list -> bool
(** Whether a [Default] clause rewrites a destination into one of these
    prefixes: a best-route change there moves where that clause
    delivers, which only {!rebuild} (or {!compile}) recomposes. *)
