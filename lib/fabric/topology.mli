(** The physical layout of a multi-switch SDX fabric (§4.1, last
    paragraph).

    A large exchange spans several physical switches, each hosting a
    subset of the participants' ports and connected by trunk links.
    This module describes that layout and nothing else: which switch
    hosts each physical port, the trunk ports between neighboring
    switches, and the next hop from one switch toward another.
    {!Fabric} splits the SDX's one logical table over it.

    Trunks are chosen along a spanning tree computed over the (possibly
    cyclic) link graph — the conventional spanning tree §3.2 mentions for
    coexistence with non-SDN participants. *)

type t

val create :
  switches:int list ->
  links:(int * int) list ->
  port_home:(int * int) list ->
  t
(** [create ~switches ~links ~port_home] describes the physical layout:
    undirected trunk [links] between switch ids, and [port_home] mapping
    each fabric (physical) port number to the switch hosting it.  Switch
    ids and port numbers index arrays, so both must be non-negative.
    @raise Invalid_argument on negative or unknown switch ids, negative
    ports, or if the link graph does not connect all switches. *)

val single : ports:int list -> t
(** The degenerate one-switch layout (switch 0 hosts every port, no
    trunks) — what a {!Network} uses unless told otherwise. *)

val edge_core : edges:int -> ports:int list -> t
(** An edge+core star: switch 0 is a core hosting no physical port,
    switches 1..[edges] are leaves with the [ports] partitioned
    round-robin across them.  Participants' rules land on their edge;
    the core forwards on destination tags only. *)

val switch_count : t -> int

val switches : t -> int list
(** Switch ids, ascending. *)

val has_physical_ports : t -> int -> bool

val edge_switches : t -> int list
(** Switches hosting at least one physical port, ascending. *)

val home_of_port : t -> int -> int option
(** The switch hosting a physical port; [None] for any other port.
    Reads an array and allocates nothing. *)

val physical_ports : t -> (int * int) list
(** Every [(port, home switch)] pair, ascending port. *)

val trunk_port : t -> from:int -> toward_neighbor:int -> int
(** Local trunk-port id on [from] for the tree link toward an adjacent
    switch; an array read.  @raise Not_found if the two switches are
    not tree neighbors. *)

val trunk_destination : t -> int -> (int * int) option
(** [trunk_destination t p] is [Some (owner, neighbor)] when [p] is a
    trunk port: a frame leaving [owner] on [p] crosses the link and
    enters [neighbor] on [trunk_port t ~from:neighbor
    ~toward_neighbor:owner].  [None] for physical ports.  Reads an array
    and allocates nothing. *)

val spanning_tree_edges : t -> (int * int) list
(** The tree edges actually used for trunking (a subset of [links];
    equal to [links] when the graph is already a tree). *)

val next_hop : t -> from:int -> toward:int -> int option
(** Next switch on the tree path; [None] when already there. *)
