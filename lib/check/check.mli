(** Static verification of compiled SDX state (§4.1/§4.2 invariants).

    A header-space-style analyzer over [Classifier.t] plus runtime
    state, using the {!Sdx_policy.Pattern} algebra as its symbolic
    domain.  Five passes:

    - {b isolation}: no packet entering on participant A's ports can be
      forwarded or modified by rules derived from participant B's policy
      except via an explicit B->A peering — every rule is attributed to
      its originating participant through {!Sdx_core.Compile.provenance}
      and its in-port pinning and egress set are verified;
    - {b bgp}: every forwarding rule's destination prefix/VMAC is
      covered by a route the route server currently exports to that
      participant, cross-checked against the Loc-RIBs — including rules
      installed by the incremental fast path;
    - {b loops}: forwarding-cycle detection over middlebox redirect
      chains (the Prelude failure mode) and, when a committed fabric is
      supplied, symbolic reachability over the entries its switches
      hold;
    - {b arp}: the ARP responder answers exactly the live binding
      universe — every participant port and every active VNH resolves to
      its MAC, and no retired VNH still answers
      ({!Sdx_arp.Responder.diff} against
      {!Sdx_core.Compile.active_groups});
    - {b lints}: shadowed/unreachable rules, stage-1/stage-2 VMAC tag
      mismatches in the two-table variant, and priority-band overlap
      between fast-path blocks and the base classifier.

    Every finding carries a severity, the offending rule indices, and a
    concrete witness packet built from the offending pattern. *)

open Sdx_net
open Sdx_core
open Sdx_fabric

type severity = Info | Warning | Error

val severity_label : severity -> string
val pp_severity : Format.formatter -> severity -> unit

type finding = {
  pass : string;  (** "isolation", "bgp", "loops", "arp", or "lints" *)
  code : string;  (** stable machine-readable finding kind *)
  severity : severity;
  detail : string;
  rules : int list;  (** offending rule indices into the checked ruleset *)
  witness : Packet.t option;
      (** a concrete packet exhibiting the problem, when constructible *)
}

type report = {
  findings : finding list;
  rules_checked : int;
  passes_run : string list;
  elapsed_s : float;
}

val all_passes : string list

(** {1 Subjects} *)

type subject
(** The artifact under analysis: a configuration, its compiled state,
    and the effective provenance-attributed ruleset. *)

val subject_of_runtime : Runtime.t -> subject
(** Fast-path blocks stacked above the base classifier, with the
    runtime's priority-band layout. *)

val subject_of_compiled : Compile.t -> Config.t -> subject

val rules : subject -> (Sdx_policy.Classifier.rule * Compile.provenance) list

val with_rules :
  subject -> (Sdx_policy.Classifier.rule * Compile.provenance) list -> subject
(** A subject with its ruleset replaced — the fault-injection surface
    the mutation tests use. *)

(** {1 Running} *)

val run : ?fabric:Fabric.t -> ?passes:string list -> subject -> report
(** Runs the selected passes (default: all).  [fabric], a committed
    {!Sdx_fabric.Fabric}, enables the multi-switch half of the loop
    pass: {!fabric_loops} over the entries its switches hold.  Records
    [sdx_check_*] metrics and a ["check"] trace span. *)

val runtime : ?fabric:Fabric.t -> ?passes:string list -> Runtime.t -> report

(** {1 Incremental checking}

    The always-on mode: instead of re-verifying the whole table after
    every burst, re-verify only the obligations the burst touched — the
    {!Sdx_core.Runtime.dirty} rule indices (isolation and the per-rule
    half of the BGP pass) and provenance groups (the per-group trace
    half of the BGP pass).  The ARP pass is global but cheap and
    burst-affected, so it always runs in full; lints run shallow
    (priority-band layout and provenance coverage only); the loop pass
    is skipped because its obligations derive from policies and the
    fabric, which BGP bursts never change (policy changes reoptimize,
    which resets the dirty-set and forces a full check).  Staleness a
    burst induces on {e untouched} rules is the one class this misses —
    the periodic full checkpoints cover it. *)

val incremental_passes : string list
(** [["isolation"; "bgp"; "arp"; "lints"]]. *)

val run_incremental :
  ?passes:string list -> dirty:Runtime.dirty -> subject -> report
(** Findings are reported with the same codes, details, rule indices and
    witnesses the full {!run} would produce for the dirty subset, so the
    two cross-validate (the qcheck suite asserts it).  [rules_checked]
    counts the dirty rules actually in range. *)

val runtime_incremental : Runtime.t -> report
(** Per-burst entry point: {!Sdx_core.Runtime.consume_dirty}, then
    {!run_incremental} over [Some] dirty-set or a full {!runtime} pass
    after a rebuild ([None]).  Wire it into [Replay.soak]'s
    [check_incremental] callback to verify every burst commit inline. *)

val compiled : ?passes:string list -> Compile.t -> Config.t -> report

val first_match : Sdx_policy.Classifier.t -> Packet.t -> int option
(** [first_match c] indexes [c] once as an {!Sdx_openflow.Table}
    snapshot, touching no live table and no metric; the returned probe
    gives the position of [c]'s first rule matching a packet, the way
    the BGP pass's default-forwarding traces find the rule a tagged
    packet hits.  Apply it partially and keep the probe. *)

val fabric_loops : ?max_states:int -> Fabric.t -> finding list
(** Just the symbolic walk over the entries a fabric's switches hold,
    version-tagged transit copies included (also reachable via
    [run ~fabric]).  Packet sets honour priorities: an entry sees only
    what no higher-priority entry took, here or at an earlier switch
    when the rewrites in between keep the exclusion exact.  The sets
    cover every packet that really travels, so every real loop is
    reported: a packet set re-entering a (switch, trunk port) inside the
    set that crossed it before is a ["fabric-cycle"] Error with a
    witness.  Past [max_states] (default 20,000) walked states the walk
    stops with an Info ["loop-check-truncated"]. *)

val network_lints : Network.t -> finding list
(** Dynamic lints over a live {!Sdx_fabric.Network}: packets lost at the
    middlebox steering-chain depth bound (Warning,
    ["steering-chain-drops"]), mixed-version packets the fabric's
    consistency monitor counted (Error, ["mixed-version-packets"]) and
    the tagged-frame transit misses among them (Error,
    ["transit-miss"]) — plus a {!fabric_loops} walk over the live
    per-switch tables (version-tagged transit rules included). *)

val witness_of_pattern : Sdx_policy.Pattern.t -> Packet.t
(** A concrete packet inside a pattern: constrained exact fields keep
    their value, prefix fields take their first address, free fields
    take {!Sdx_net.Packet.make} defaults. *)

(** {1 Reports} *)

val errors : report -> finding list
val warnings : report -> finding list
val has_errors : report -> bool
val count : severity -> report -> int
val summary : report -> string
val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> report -> unit

exception Violation of report

(** {1 Hooks} *)

val install_runtime_hook : ?fail:bool -> unit -> unit
(** Installs the process-wide {!Sdx_core.Runtime.set_check_hook}: every
    compilation the runtime performs (initial, re-optimization,
    fast-path install) is verified.  Error findings raise {!Violation}
    when [fail] is set and are printed to stderr otherwise. *)

val uninstall_runtime_hook : unit -> unit
