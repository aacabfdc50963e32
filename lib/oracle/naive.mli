(** The naive grouping: the reference for the export-vector grouping
    {!Sdx_core.Compile.compile} runs.  Each via-clause's covered prefixes
    are materialized with a full scan of what its via announces, then
    the pairwise-signature {!Fec} partition groups them. *)

open Sdx_net
open Sdx_bgp
open Sdx_core

val reachable :
  Config.t -> sender:Participant.t -> via:Asn.t -> Ppolicy.clause -> Prefix.Set.t
(** The prefixes a [fwd(via)] clause of [sender] diverts: every prefix
    [via] exports to [sender] over a loop-free, filter-passing route,
    narrowed by the clause predicate's destination restriction. *)

val partition : Config.t -> Prefix.t list list
(** The partition alone, with no VNH draws or group records: the
    {!Fec} partition of every via-clause's {!reachable} set and every
    participant's originated set, split by the production grouping's
    default keys.  Members are sorted by prefix and cells by smallest
    member, so it equals [List.map (fun g -> g.prefixes) (Compile.groups
    t)] whenever the two groupings agree. *)
