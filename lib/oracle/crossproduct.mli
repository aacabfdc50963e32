(** The cross-product reference compiler: the blocks a compile laid out
    ({!Sdx_core.Compile.slots}), each composed in the classifier algebra
    — the block's head compiled to a classifier and sequenced with the
    target's compiled inbound pipeline — where the production compile
    builds and slices forwarding decision diagrams.

    The two agree packet by packet and lay out the same blocks in the
    same order, but they do not agree rule for rule: the cross-product
    puts more rules in each block.  On the [bench json] workload shape
    (inbound density 3.0) it compiles 297 rules where the diagrams give
    168 (40 participants, 300 prefixes, seed 1), and 3,928 against 902
    (100 participants, 2,000 prefixes, seed 2), over the same 135 and
    548 blocks. *)

open Sdx_policy
open Sdx_core

type result = {
  classifier : Classifier.t;  (** the blocks in order, then the catch-all *)
  provenance : (Compile.provenance * int) list;
      (** each block's origin and its rule count here *)
  compose_s : float;  (** wall-clock of composing the blocks *)
}

val compose : Compile.t -> Config.t -> result
(** Composes the blocks [t]'s last build laid out, against the same
    configuration and route-server state.  Compiled inbound pipelines
    are memoized per (owner, delivery), so every block that hands
    traffic to the same participant on the same port shares one. *)
