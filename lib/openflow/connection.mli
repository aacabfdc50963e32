(** An in-memory OpenFlow control channel: the controller side sends
    {!Message} values; flow modifications are applied to the switch's
    table, and switch-to-controller traffic (barrier and echo replies)
    is queued for {!recv}.  {!Sdx_fabric.Fabric}'s commit computes the
    flow-mods a ruleset change needs and sends them here. *)

type t

val create : Switch.t -> t

val send : t -> Message.t -> unit
(** Controller-to-switch.  [Flow_mod]s mutate the flow table;
    [Barrier_request]/[Echo_request] queue their replies.  An [Add]
    files its entry under the request's cookie (re-filing an overwritten
    entry; cookie 0 files nothing), a strict delete unfiles the
    (priority, pattern) slot it removes, and a cookie delete removes
    exactly the entries filed under that cookie, each counting as one
    flow-mod. *)

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
    barrier (echo replies) are left for {!recv}. *)

val flow_mods_applied : t -> int
(** Total flow modifications applied over the channel's lifetime. *)

val installed : t -> Flow.t list
