(** A software OpenFlow switch holding one flow table: the policy
    compiler flattens the SDX's virtual topology into a single table,
    and {!Sdx_fabric.Fabric} forwards frames through it. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty switch whose table holds at most [capacity] entries. *)

val table : t -> int -> Table.t
(** [table sw 0] is the switch's table.
    @raise Invalid_argument on any other table id. *)
