(** OpenFlow-style controller/switch messages.

    The subset a software-defined exchange actually exercises: flow
    modifications (with cookies so related rules can be deleted
    together), barriers for ordering, and echo keepalives. *)

type flow_mod_command =
  | Add
  | Delete_strict  (** delete the entry matching priority and pattern exactly *)
  | Delete_by_cookie  (** delete every entry carrying the cookie *)

type t =
  | Flow_mod of { command : flow_mod_command; cookie : int; flow : Flow.t }
  | Barrier_request of int  (** xid *)
  | Barrier_reply of int
  | Echo_request of int
  | Echo_reply of int

val add : ?cookie:int -> Flow.t -> t
val delete : ?cookie:int -> Flow.t -> t
val delete_cookie : int -> t
val pp : Format.formatter -> t -> unit
