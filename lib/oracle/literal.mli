(** The literal composition: the §4.3 baseline the optimizations beat.
    Every participant's policy, outbound clauses over the default
    layer, is composed as [(P1 + ... + Pn) >> (P1 + ... + Pn)] in one
    policy and compiled by the classifier algebra, with no per-block
    structure, no disjointness and no memoization. *)

open Sdx_policy
open Sdx_core

val compose : Compile.t -> Config.t -> Classifier.t
(** The literal composition over [t]'s prefix groups, against the same
    configuration and route-server state.  A via-clause covers the
    groups whose members lie in its {!Naive.reachable} set.  Agrees
    with [Compile.classifier t] on every packet a router tags. *)
