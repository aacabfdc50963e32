(** Classifier compilation: from policies to prioritized match/action
    rules, the form installable on an OpenFlow switch.

    A classifier is a first-match-wins rule list.  Compiled classifiers
    are {e total}: the last rule matches every packet, so every packet is
    decided by some rule.  An action is a set of header modifications;
    each modification yields one output packet (multicast), and the empty
    set drops the packet. *)

open Sdx_net

type rule = { pattern : Pattern.t; action : Mods.t list }
(** [action] is kept duplicate-free and sorted, so rules compare
    structurally. *)

type t = rule list

val drop_all : t
(** The classifier that drops everything. *)

val id_all : t
(** The classifier that passes everything through unchanged. *)

val compile : Policy.t -> t
(** Compile a policy to an equivalent total classifier.  The result
    agrees with {!Policy.eval} on every packet. *)

val compile_pred : Pred.t -> t
(** Classifier acting as a filter: identity on packets satisfying the
    predicate, drop elsewhere. *)

val eval : t -> Packet.t -> Packet.t list
(** First-match semantics; duplicate-free, sorted like {!Policy.eval}. *)

val first_match : t -> Packet.t -> rule option

val par : t -> t -> t
(** Parallel composition of total classifiers: a packet receives the
    union of the actions of its first match in each operand. *)

val seq : t -> t -> t
(** Sequential composition of total classifiers: actions of the first
    operand feed the second. *)

val restrict : Pattern.t -> t -> t
(** [restrict p c] confines [c] to packets matching [p]; packets outside
    [p] are dropped.  The result is total. *)

val shadows : t -> (int * int) list
(** Report (without removing) rules an earlier superset rule shadows:
    [(i, j)] means rule [i] can never match because rule [j < i] matches
    every packet rule [i] does.  Index order, lowest shadowing index
    preferred per rule. *)

val rule_count : t -> int

val equivalent_on : t -> t -> Packet.t list -> bool
(** [equivalent_on c1 c2 pkts] checks pointwise agreement on [pkts]. *)

val pp : Format.formatter -> t -> unit
val pp_rule : Format.formatter -> rule -> unit
