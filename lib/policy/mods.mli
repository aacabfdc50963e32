(** Partial header modifications: the action half of a flow rule.

    A modification assigns new values to a subset of packet fields.
    Setting [port] relocates the packet (Pyretic's [fwd]). *)

open Sdx_net

type t = {
  port : int option;
  src_mac : Mac.t option;
  dst_mac : Mac.t option;
  eth_type : int option;
  src_ip : Ipv4.t option;
  dst_ip : Ipv4.t option;
  proto : int option;
  src_port : int option;
  dst_port : int option;
}

val identity : t
(** Modifies nothing. *)

val is_identity : t -> bool

val make :
  ?port:int ->
  ?src_mac:Mac.t ->
  ?dst_mac:Mac.t ->
  ?eth_type:int ->
  ?src_ip:Ipv4.t ->
  ?dst_ip:Ipv4.t ->
  ?proto:int ->
  ?src_port:int ->
  ?dst_port:int ->
  unit ->
  t

val apply : t -> Packet.t -> Packet.t

val apply_at : t -> port:int -> Packet.t -> Packet.t
(** [apply_at t ~port p] is [apply t p] relocated to [port], built as
    one record: what a frame crossing a link looks like on the far
    side. *)

val then_ : t -> t -> t
(** [then_ a b] is the modification equivalent to applying [a] and then
    [b]; assignments in [b] win on fields both set. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Structural hash consistent with {!equal}. *)

val pp : Format.formatter -> t -> unit
