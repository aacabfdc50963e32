(** A route-server-side BGP session endpoint: the glue between the wire
    format, the session FSM, and the route server.

    The transport is abstract — callers push received bytes in with
    {!feed} (any fragmentation; messages are reassembled from the length
    header) and drain bytes to transmit with {!pending_output}.  Decoded
    UPDATE messages surface as route-server updates attributed to the
    session's peer. *)


type t

val create : local:Wire.open_msg -> peer_asn:Asn.t -> t
(** [local] describes this side's OPEN parameters; [peer_asn] is the
    participant the session belongs to (learned routes are attributed to
    it). *)

val state : t -> Fsm.state

val connect : t -> unit
(** Start the session: after the (modeled) TCP connection comes up, the
    local OPEN is queued for transmission.  Received bytes not yet
    framed and output not yet drained are dropped, so a reconnect starts
    on an empty stream both ways. *)

val feed : t -> bytes -> (Update.t list, string) result
(** Append received transport bytes (any framing) and process every
    complete message: FSM transitions run, replies (KEEPALIVE,
    NOTIFICATION) are queued, and the route-server updates implied by
    UPDATE messages are returned.  A framing or decode error queues the
    NOTIFICATION it calls for ({!Wire.error}; 1/2 for a declared length
    below 19) unless the session is already down, then tears the session
    down and discards every byte buffered so far, with the transport
    they came on.  Messages are framed in place, so a call costs linear time in
    the bytes it carries plus those left over from the previous call.
    The session keeps no reference to [data]. *)

val send_update : t -> Update.t -> unit
(** Queue an outgoing UPDATE (a re-advertisement toward the peer).
    Silently ignored unless the session is established. *)

val send_encoded : t -> string -> unit
(** Queue an already encoded message, so one encoding can be sent on
    many sessions.  The session keeps the string itself, shared with
    every other session it was queued on, and copies it only when
    {!pending_output} drains it.  Silently ignored unless the session is
    established. *)

val keepalive_due : t -> unit
(** The keepalive timer fired: queue a KEEPALIVE if appropriate. *)

val hold_expired : t -> unit
(** The hold timer fired: tear the session down with a notification. *)

val pending_output : t -> bytes list
(** Drain the bytes to transmit, in order.  Every buffer returned is
    fresh and belongs to the caller: none is shared with another
    session's output or kept by this one. *)

val flush_requested : t -> bool
(** True once the FSM has asked for the peer's routes to be withdrawn
    (session loss after establishment); reading it clears the flag.  The
    caller materializes the withdrawals, one per prefix the peer
    announced (the SDX gateway sends them as one burst). *)

val peer_asn : t -> Asn.t

val remote_open : t -> Wire.open_msg option
(** The peer's OPEN parameters, once received. *)
