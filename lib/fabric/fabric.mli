(** A sharded multi-switch fabric with two-phase consistent updates
    (§4.1; Reitblatt et al.'s per-packet consistency), versioned per
    destination.

    One software switch and one OpenFlow {!Sdx_openflow.Connection} per
    {!Topology} switch.  Logical rules split into an ingress band
    (port-pinned rules at their home edge, unpinned rules at every edge)
    whose remote outputs re-address frames into the {!Vtag} space, and a
    transit band (far above the ingress priorities) forwarding on tags
    only.  A destination MAC some trunk frame is stamped for gets a
    slice: transit copies of its port-unpinned dst-MAC rules, installed
    only on its reach, the switches a frame tagged for it can arrive at
    (the first hops of the ingress copies that stamp it, closed over the
    slice copies that forward or re-stamp frames onward).  A MAC nothing
    stamps, such as a VMAC whose every rule re-addresses its frames to a
    port MAC, gets no copy.  Each slice carries its own tag parity.

    {!commit} diffs the new logical ruleset against the last committed
    one and flips only the slices that are new or whose rules or reach
    changed, closed over the slices whose copies re-stamp toward a
    flipped MAC, in three barrier-separated phases — install the flipped
    slices' new-parity copies on their new reach (cookie-tagged,
    make-before-break), add, overwrite or delete the ingress rules that
    changed or stamp a flipped MAC, then delete the old-parity copies by
    cookie on their old reach — so a frame stamped with an old parity
    keeps matching old rules until every edge provably stamps the new
    one, and an unchanged ruleset sends no flow-mod.  {!process} doubles
    as the protocol's monitor: it counts packets that meet a mixed
    ruleset (tag with no transit rule, tag falling through to the
    ingress band, one destination tagged with both parities on one
    delivery tree, or a tag leaking out of a delivered frame). *)

open Sdx_net
open Sdx_openflow

val transit_base : int
(** Priority offset of the transit bands; logical flow priorities must
    stay below it. *)

type t

val create : ?capacity:int -> Topology.t -> t
(** One switch (with optional per-table [capacity]) and connection per
    topology switch; version 0, nothing installed. *)

val topo : t -> Topology.t
val switches : t -> int list

val switch : t -> int -> Switch.t
(** @raise Invalid_argument on an unknown switch id. *)

val connection : t -> int -> Connection.t
(** @raise Invalid_argument on an unknown switch id. *)

type commit_stats = {
  version : int;  (** the version the commit moved the fabric to *)
  install_mods : int;  (** phase-1 adds: flipped slices at their new parity *)
  flip_mods : int;  (** phase-2 mods: ingress adds, overwrites, deletes *)
  gc_mods : int;  (** phase-3 deletes: flipped slices' old-parity copies *)
  barriers : int;  (** barrier round-trips across all switches *)
}

val total_mods : commit_stats -> int

type phase =
  | Installed of int  (** new slice copies on their reach, old rules live *)
  | Flipped of int  (** every edge now stamps the new parities *)
  | Collected of int  (** the superseded slice copies deleted *)
  | Synced_member of int
      (** [`Unsafe_single_phase] only: one switch cut over, others not *)

val commit :
  ?protocol:[ `Two_phase | `Unsafe_single_phase ] ->
  ?on_phase:(phase -> unit) ->
  t ->
  Flow.t list ->
  commit_stats
(** Moves every switch to the given logical ruleset, sending only the
    flow-mods the change needs, one batch per switch and phase.  The
    fabric's version v moves to v+1 unless the ruleset is unchanged, in
    which case nothing is sent and the version stays; the phases fire
    either way, as [Installed v'], [Flipped v'] and [Collected (v'-1)]
    for the resulting version v'.  [`Two_phase] (the default) is the
    consistent protocol described above; [`Unsafe_single_phase] sends
    each switch all three phases' mods at once, switch by switch, with
    no make-before-break — the negative control that makes
    {!mixed_version_packets} move.  [on_phase] fires after each phase's
    barriers; injecting probe traffic from it exercises the mid-update
    windows.
    @raise Invalid_argument if a flow priority reaches {!transit_base}
    or a trunk-crossing action names no destination MAC; nothing is
    sent then, and the fabric keeps the ruleset it had. *)

val version : t -> int
val commits : t -> int
val last_commit : t -> commit_stats option

val process : t -> Packet.t -> Packet.t list
(** Runs a packet located at a physical port through the sharded data
    plane, hopping trunks switch to switch; the result is the set of
    frames leaving on physical ports, tag-free — packet-for-packet what
    the logical single-switch table yields.  Entry hit counters advance
    once per switch visited, and the consistency monitor updates
    {!mixed_version_packets} / {!transit_misses}. *)

(** {2 Pure parallel readers} *)

type snap
(** Per-switch RCU table snapshots plus the topology: build on the
    owning domain with {!snapshots}, then hand to worker domains. *)

val snapshots : t -> snap

val reader : snap -> Packet.t -> Packet.t list
(** [reader snap] walks packets over the frozen snapshot without
    touching counters or shared state.  Call once per worker domain (the
    cursors inside are domain-private), then apply freely. *)

(** {2 Introspection} *)

val rule_counts : t -> (int * int) list
(** Installed rules per switch, ascending switch id. *)

val total_rules : t -> int

val untag : t -> Mac.t -> Mac.t option
(** The destination address a trunk tag of this fabric stands for;
    [None] for untagged addresses. *)

val packets : t -> int
(** Packets {!process} has walked. *)

val mixed_version_packets : t -> int
(** Packets whose walk showed a mixed ruleset — the number the two-phase
    protocol exists to keep at zero. *)

val transit_misses : t -> int
(** The subset of mixed-version packets dropped because a tagged frame
    found no transit rule at some switch. *)
