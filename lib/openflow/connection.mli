(** An in-memory OpenFlow control channel: the controller side sends
    {!Message} values; flow modifications are applied to the switch's
    table, and switch-to-controller traffic (barrier replies, echo
    replies, packet-ins on table miss) is queued for {!recv}.

    [sync] provides what the SDX runtime needs: given the desired rule
    set, it computes and sends the minimal add/delete flow-mod sequence —
    so a BGP update touches a handful of entries instead of reinstalling
    the table (§4.3.2 "pushes the resulting forwarding rules into the
    data plane"). *)

open Sdx_net

type t

val create : ?table:int -> Switch.t -> t

val send : t -> Message.t -> unit
(** Controller-to-switch.  [Flow_mod]s mutate the flow table;
    [Barrier_request]/[Echo_request] queue their replies; [Packet_out]
    runs the packet through the switch.  An [Add] files its entry under
    the request's cookie (re-filing an overwritten entry; cookie 0 files
    nothing), a strict delete unfiles the (priority, pattern) slot it
    removes, and a cookie delete removes exactly the entries filed under
    that cookie, each counting as one flow-mod. *)

val send_all : t -> Message.t list -> unit
(** [List.iter (send t)] with the same result, except that each run of
    consecutive [Flow_mod]s reaches the table as one
    {!Table.apply} batch. *)

val recv : t -> Message.t option
(** Next switch-to-controller message, if any.  The queue is a two-list
    FIFO, so [queue]/[recv] are O(1) amortized. *)

val pending : t -> int
(** Queued switch-to-controller messages.  O(1). *)

val barrier : t -> int -> bool
(** Sends a [Barrier_request xid] and consumes the matching
    [Barrier_reply] from the queue.  [true] when the switch answered —
    always, for this in-memory channel — meaning every flow-mod sent
    before the barrier has been applied.  Messages queued before the
    barrier (packet-ins) are left for {!recv}. *)

val flow_mods_applied : t -> int
(** Total flow modifications applied over the channel's lifetime. *)

val installed : t -> Flow.t list

val process : t -> Packet.t -> Packet.t list
(** Data-plane arrival: like {!Switch.process}, but a table miss queues
    a [Packet_in] for the controller.  The miss probe is pure (an RCU
    snapshot lookup), so each matched packet bumps the winning entry's
    hit counter exactly once — inside [Switch.process]. *)

val sync : t -> Flow.t list -> int
(** Make the installed rule set equal the target, sending one
    [Flow_mod] per difference (adds before strict deletes).  A target
    listing the same (priority, pattern) slot twice resolves to its last
    occurrence, mirroring sequential OpenFlow ADDs — so sync is
    idempotent even on duplicate-entry targets.  Returns the number of
    modifications sent; 0 when already in sync. *)
