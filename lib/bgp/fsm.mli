(** The BGP session finite-state machine (RFC 4271 §8, simplified to the
    events a route-server deployment sees).  Pure transition logic: each
    event yields the actions the host should perform (send a message,
    manage the TCP connection, flush the peer's routes), so it is
    directly testable and the I/O lives elsewhere. *)

type state = Idle | Connect | Active | Open_sent | Open_confirm | Established

type event =
  | Manual_start
  | Manual_stop
  | Tcp_connected
  | Tcp_failed
  | Connect_retry_expired
  | Open_received of Wire.open_msg
  | Keepalive_received
  | Update_received
  | Notification_received
  | Hold_timer_expired
  | Keepalive_timer_expired

type action =
  | Start_connection
  | Drop_connection
  | Send_open
  | Send_keepalive
  | Send_notification of { code : int; subcode : int }
  | Flush_routes
      (** withdraw everything learned from the peer (the implicit
          withdrawals, one per prefix it announced) *)

type t

val create : unit -> t
val state : t -> state

val handle : t -> event -> action list
(** Applies one event, returning the actions in execution order.
    Unexpected events follow RFC 4271's FSM-error handling: a
    notification (code 5) and a fall back to [Idle]. *)

val connect_retries : t -> int
(** How many times the connection has been (re)initiated. *)

val pp_state : Format.formatter -> state -> unit
