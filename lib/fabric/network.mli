(** The wired IXP: border routers attached to the SDX fabric — one
    switch in the default layout, or a sharded multi-switch {!Fabric}
    when built with an explicit {!Topology} — with the runtime's
    compiled classifier installed.  This is the end-to-end path a packet
    takes in the deployment experiments. *)

open Sdx_net
open Sdx_bgp

type t

type delivery = {
  receiver : Asn.t;
  receiver_port : int;  (** the receiver's participant-local port index *)
  packet : Packet.t;
}

val create :
  ?switch_capacity:int -> ?topology:Topology.t -> Sdx_core.Runtime.t -> t
(** Builds one border router per physical participant port, creates the
    fabric ({!Topology.single} over the config's ports unless [topology]
    says otherwise), and commits the classifier to it; then syncs every
    router's FIB.  [switch_capacity] models the per-switch hardware rule
    budget of §4.2 ("even the most high-end SDN switch hardware can
    barely hold half a million rules"); installing beyond it raises
    {!Sdx_openflow.Table.Table_full}. *)

val runtime : t -> Sdx_core.Runtime.t

val fabric : t -> Fabric.t
(** The sharded data plane behind this exchange. *)

val topology : t -> Topology.t

val switch : t -> Sdx_openflow.Switch.t
(** The first (in the default layout: only) fabric switch. *)

val router : t -> Asn.t -> Border_router.t
(** The router on the participant's first port.
    @raise Not_found for remote participants. *)

val sync : t -> unit
(** Brings the data plane to the runtime's current ruleset through the
    two-phase {!commit} and refreshes every router FIB — run after BGP
    updates or a re-optimization.  The commit sends only the change, so
    an unchanged ruleset costs no flow-mods. *)

val commit :
  ?protocol:[ `Two_phase | `Unsafe_single_phase ] ->
  ?on_phase:(Fabric.phase -> unit) ->
  t ->
  Fabric.commit_stats
(** Commits the runtime's current flows to the fabric through the
    versioned update protocol (see {!Fabric.commit}), without touching
    the router FIBs. *)

val connection : t -> Sdx_openflow.Connection.t
(** The OpenFlow control channel to the first fabric switch. *)

val last_sync_flow_mods : t -> int
(** Flow modifications the most recent {!sync} (or {!create}) sent —
    zero for a no-op sync, small after a single BGP update, large after
    a re-optimization. *)

val telemetry : t -> Telemetry.t
(** Traffic counters, updated by every {!inject}. *)

val steering_drops : t -> int
(** Packets lost because a middlebox steering chain hit the
    re-injection depth bound ({!Telemetry.steering_drops}). *)

val attach_middlebox : t -> Asn.t -> Middlebox.t -> unit
(** Attaches a middlebox behind the participant's port: traffic the
    fabric delivers there is transformed and handed back to the host's
    border router for re-injection, so steering policies can chain
    functions on the way to the BGP destination (§8).  The host must
    have a physical port. *)

val detach_middlebox : t -> Asn.t -> unit

val inject : t -> from:Asn.t -> Packet.t -> delivery list
(** Sends a packet originating in [from]'s network: its border router
    tags and forwards it, then the fabric processes it (hopping trunks
    in a sharded layout).  A delivery landing on a middlebox host is
    transformed and re-injected (bounded depth guards against steering
    loops; packets lost at the bound are counted, see
    {!steering_drops}).  Returns the final deliveries (empty when routed
    nowhere, dropped, or blackholed). *)

val inject_at_port : t -> Packet.t -> delivery list
(** Processes a packet already located at a fabric port (packet.port),
    bypassing the border router — for tests that craft raw fabric
    traffic. *)

val inject_frame : t -> from:Asn.t -> bytes -> (delivery list, string) result
(** {!inject} over wire bytes: the frame is parsed ({!Sdx_net.Codec}),
    routed end to end, and the deliveries carry re-encoded frames in
    [frame].  Errors on malformed frames. *)

val frame_of_delivery : delivery -> bytes
(** The delivered packet as the bytes the receiving router would read
    off the wire. *)
