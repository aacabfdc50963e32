open Sdx_net
open Sdx_policy
open Sdx_bgp
module Sync = Sdx_sanitize.Sync

let blackhole_port = 0

let profile_on = lazy (Sys.getenv_opt "SDX_PROFILE" <> None)

let profile_stage name f =
  if not (Lazy.force profile_on) then f ()
    else begin
      let t0 = Unix.gettimeofday () in
      let r = f () in
      Printf.eprintf "[profile] %-12s %8.3fs\n%!" name
        (Unix.gettimeofday () -. t0);
      r
    end

type group = {
  id : int;
  vnh : Ipv4.t;
  vmac : Mac.t;
  (* sdx-owner: [prefixes] is rewritten only by the coordinating thread
     (the incremental fast path's class split/merge), never from pool
     domains; build fan-outs only read it. *)
  mutable prefixes : Prefix.t list;
  default_variants : (Ipv4.t option * Asn.t list) list;
}

type stats = {
  group_count : int;
  rule_count : int;
  elapsed_s : float;
  compose_s : float;
  reachability_s : float;
  group_s : float;
  seq_ops : int;
  memo_hits : int;
  fdd_build_s : float;
  fdd_merge_s : float;
  fdd_extract_s : float;
  fdd_nodes : int;
  fdd_memo_hits : int;
  fdd_table_size : int;
}

let zero_stats =
  {
    group_count = 0;
    rule_count = 0;
    elapsed_s = 0.;
    compose_s = 0.;
    reachability_s = 0.;
    group_s = 0.;
    seq_ops = 0;
    memo_hits = 0;
    fdd_build_s = 0.;
    fdd_merge_s = 0.;
    fdd_extract_s = 0.;
    fdd_nodes = 0;
    fdd_memo_hits = 0;
    fdd_table_size = 0;
  }

module Obs = struct
  open Sdx_obs.Registry

  let compiles = counter "sdx_compile_total"
  let compile_seconds = histogram "sdx_compile_seconds"
  let rules = gauge "sdx_compile_rules"
  let groups = gauge "sdx_compile_groups"
  let seq_ops = counter "sdx_compile_seq_ops_total"
  let memo_hits = counter "sdx_compile_memo_hits_total"
  let batches = counter "sdx_compile_batch_total"
  let batch_seconds = histogram "sdx_compile_batch_seconds"
  let batch_rules = counter "sdx_compile_batch_rules_total"
  let batch_prefixes = counter "sdx_compile_batch_prefixes_total"

  (* Fresh VNHs allocated by the fast path — the quantity the batch
     coalescing exists to keep sub-linear in burst size. *)
  let batch_vnhs = counter "sdx_compile_batch_vnh_total"

  (* VNHs returned to the free-list when a burst left a fast-path group
     with no bound prefixes, and batches abandoned because the pool
     could not cover them. *)
  let vnhs_retired = counter "sdx_compile_vnh_retired_total"
  let batch_exhausted = counter "sdx_compile_batch_exhausted_total"

  (* Tombstoned fast-path groups still held for provenance attribution
     (capped by [compact_retired]), and prefixes the incremental path
     rebound into an already-interned class instead of minting a fresh
     VNH for them. *)
  let retired_tombstones = gauge "sdx_compile_retired_groups"
  let batch_migrations = counter "sdx_compile_batch_migrations_total"

  (* The FDD intermediate representation: node population of the merged
     main manager, memo-cache hits across all shard managers, and live
     unique-table entries after the shard-merge pass. *)
  let fdd_nodes = gauge "sdx_fdd_nodes"
  let fdd_memo_hits = counter "sdx_fdd_memo_hits_total"
  let fdd_table_size = gauge "sdx_fdd_unique_table_size"
end

(* An outbound clause together with the prefixes whose default behavior it
   overrides — one element of the collection the MDS partition runs on.
   [prefix_set] is the clause's covered-prefix set materialized the
   pre-ISSUE-9 way (a full [reachable_prefixes] scan per spec); it is
   lazy because only the naive grouping oracle and the naive build
   consume it — the export-vector pipeline derives coverage from the
   interned class signatures instead.  [restriction] is the clause
   predicate's destination restriction, precomputed once. *)
type ospec = {
  spec_id : int;  (** position in collection order; keys per-shard caches *)
  sender : Participant.t;
  clause : Ppolicy.clause;
  via : Asn.t option;
  restriction : Prefix.t list option;
  prefix_set : Prefix.Set.t Lazy.t;
}

(* Class signature: (via-spec membership, preference-ordered route
   fingerprint, originator).  Equal signatures compile to identical rule
   slices — membership pins the sender blocks, the fingerprint pins the
   default variants and every diversion delivery port, the originator
   pins SDX-originated delivery.  The polymorphic hash truncates after a
   few list nodes (long memberships would collide constantly), so the
   table hashes every element explicitly. *)
module Class_key = struct
  (* The full export-vector set-bit list (via-spec band ascending, then
     the origin band) plus the default-route fingerprint: exactly the
     pair the partition distinguishes cells by, so the interned-class
     table is injective on live classes.  Keying on anything less — the
     old (via band, fingerprint, first originator) triple — collided
     classes that differ only in secondary originators, silently
     migrating burst prefixes into the wrong class. *)
  type t = int list * (Asn.t * Ipv4.t) list

  let equal (a : t) (b : t) = a = b

  let hash ((ids, fp) : t) =
    let h = ref 0x811c9dc5 in
    List.iter (fun i -> h := ((!h lxor i) * 0x01000193) land max_int) ids;
    List.iter
      (fun pair -> h := ((!h lxor Hashtbl.hash pair) * 0x01000193) land max_int)
      fp;
    !h
end

module Class_tbl = Hashtbl.Make (Class_key)

module Pipeline_key = struct
  type t = Asn.t * Mods.t option

  let equal (a1, m1) (a2, m2) = Asn.equal a1 a2 && Option.equal Mods.equal m1 m2

  let hash (a, m) =
    (Asn.hash a * 31) + (match m with None -> 0x3ac5 | Some m -> Mods.hash m)
end

module Pipeline_cache = Hashtbl.Make (Pipeline_key)

(* Everything a rule-generation job mutates lives in a per-domain shard:
   the domain's private FDD manager, its pipeline caches, its operation
   counters and phase timers.  Jobs run lock-free; the coordinating
   domain aggregates counters and hash-conses the shard diagrams into
   the main manager after the fan-out settles (the satellite fix for the
   old global-mutex counters, which serialized the pool on stats). *)
type shard = {
  fdd : Fdd.manager;
  fdd_pipelines : Fdd.t Pipeline_cache.t;
  cls_pipelines : Classifier.t Pipeline_cache.t;
  head_fdds : (int, Fdd.t) Hashtbl.t;
      (* clause-head diagram per [spec_id]: group-independent, so every
         group of a clause reuses one diagram *)
  extracts : (int, Classifier.t) Hashtbl.t;
      (* extracted classifier per diagram id: extraction runs once per
         distinct diagram, and per-group blocks are sliced out of the
         cached classifier by pattern restriction *)
  delivery : (Asn.t * int, (Participant.port * int) option) Hashtbl.t;
      (* delivery port per (via, group id): every clause diverting
         through [via] asks the same question of the same group, and the
         answer only depends on route-server state that is fixed for the
         duration of a build *)
  (* sdx-owner: shard stats are domain-private (one shard per domain
     per epoch, reached only through the DLS slot) until [aggregate]
     reads them after the pool batch joins. *)
  mutable seq_ops : int;
  mutable memo_hits : int;
  mutable build_s : float;  (* CPU-seconds constructing diagrams *)
  mutable extract_s : float;  (* CPU-seconds extracting classifiers *)
}

let fresh_shard () =
  {
    fdd = Fdd.create ();
    fdd_pipelines = Pipeline_cache.create 64;
    cls_pipelines = Pipeline_cache.create 64;
    head_fdds = Hashtbl.create 64;
    extracts = Hashtbl.create 64;
    delivery = Hashtbl.create 64;
    seq_ops = 0;
    memo_hits = 0;
    build_s = 0.;
    extract_s = 0.;
  }

(* Compile runs are numbered by a process-wide epoch; each pool domain
   keeps (at most) one live shard, keyed by the epoch that created it, so
   a new run never sees a stale manager from a previous one. *)
let epoch_counter = Sync.Atomic.make 0
let shard_slot : shard Parallel.Local.t = Parallel.Local.create ()

(* Where a block of compiled rules came from — threaded alongside the
   classifier so a static checker can attribute every rule to the
   participant policy (or compiler layer) that produced it. *)
type provenance =
  | Outbound of { sender : Asn.t; via : Asn.t option; group : int option }
  | Group_default of { group : int }
  | Untagged of { owner : Asn.t }
  | Catch_all
  | Unattributed

(* One rule block of the optimized classifier, named by what it is
   composed from: a via-clause applied to one class, a direct clause,
   one class's default forwarding, or one participant's untagged
   layer. *)
type slot =
  | Via_slot of ospec * group
  | Direct_slot of ospec
  | Default_slot of group
  | Untagged_slot of Participant.t

(* The same blocks keyed by ids, so a stored block survives its class's
   membership changes. *)
type block_key =
  | Via_block of int * int  (* spec id, group id *)
  | Direct_block of int  (* spec id *)
  | Default_block of int  (* group id *)
  | Untagged_block of Asn.t

type t = {
  (* sdx-owner: [classifier], [groups_] and everything the rebuild
     rewrites are written only by the coordinating thread, between pool
     batches. *)
  mutable classifier : Classifier.t;
  mutable groups_ : group list;
  by_prefix : (Prefix.t, group) Hashtbl.t;
  arp_ : Sdx_arp.Responder.t;
  (* sdx-owner: stats_, next_group_id, blocks_, batch_groups_ and
     retired_groups_ are only written by the coordinating thread between
     pool batches; shards_ is the exception and is guarded by
     [shards_lock]. *)
  mutable stats_ : stats;
  ospecs : ospec list;
  ospec_arr : ospec array;  (* [ospecs] indexed by [spec_id] *)
  memoize : bool;
  mode : [ `Fdd | `Crossproduct ];
  epoch : int;
  (* The coordinating domain's shard, pinned for the life of [t]: the
     incremental fast path keeps reusing its pipeline caches long after
     the build fan-out is gone. *)
  main_shard : shard;
  (* Extracted body classifiers shared across every shard of the run:
     clause bodies keyed by (spec id, delivery switch port), inbound
     pipelines keyed by (owner, delivery switch port).  A classifier is
     immutable data, so one domain's extraction serves every other
     domain's groups — each distinct diagram is built and extracted once
     per run, not once per shard. *)
  shared_bodies : (int * int, Classifier.t) Hashtbl.t;
  shared_pipes : (Asn.t * int option, Classifier.t) Hashtbl.t;
  shared_lock : Sync.Mutex.t;
  mutable shards_ : shard list;
  shards_lock : Sync.Mutex.t;
  mutable next_group_id : int;
  mutable blocks_ : (provenance * int) list;
  mutable batch_groups_ : group list;  (* fast-path groups, oldest first *)
  (* Fast-path groups every member prefix of which was since rebound or
     withdrawn: their VNHs are back on the free-list and their ARP
     bindings gone, but older fast-path blocks may still carry their
     (dead, shadowed) rules — kept as tombstones so provenance
     attribution still resolves their ids.  [compact_retired] drops the
     ones no live provenance references any more. *)
  mutable retired_groups_ : group list;
  (* sdx-owner: [class_intern], [class_keys] and [block_store] are
     written only by the coordinating thread (base compile, then the
     fast path and the rebuild between pool batches); build fan-outs
     never touch them. *)
  (* Canonical class table of the incremental fast path: signature
     (via-spec membership, preference-ordered route fingerprint,
     originator) to the live group carrying it.  Two prefixes with equal
     signatures provably compile to identical rule slices, so a burst
     prefix whose signature is already interned is rebound to the
     existing class instead of minting a VNH and re-emitting rules. *)
  class_intern : group Class_tbl.t;
  class_keys : (int, Class_key.t) Hashtbl.t;  (* the inverse, by group id *)
  (* Every live block as last composed, for [rebuild] to lay out again;
     kept only when [rebuildable] (an optimized, interned compile). *)
  block_store : (block_key, Classifier.t) Hashtbl.t;
  rebuildable : bool;
  (* The address every [Default] clause that rewrites [dst_ip] resolves
     through a Loc-RIB, the one route lookup a block makes outside its
     class key, with the participant whose inbound pipeline holds the
     clause ([None] for a direct outbound clause). *)
  default_rewrites : (Asn.t option * Ipv4.t) list;
}

let classifier t = t.classifier
let groups t = t.groups_

let all_groups t =
  t.groups_ @ List.rev t.batch_groups_ @ t.retired_groups_

let active_groups t = t.groups_ @ List.rev t.batch_groups_
let retired_groups t = t.retired_groups_
let group_of_prefix t p = Hashtbl.find_opt t.by_prefix p

let diverts_via t via =
  List.exists
    (fun s -> match s.via with Some v -> Asn.equal v via | None -> false)
    t.ospecs
let arp t = t.arp_
let stats t = t.stats_

(* The calling domain's shard for this compile run, created (and
   registered for end-of-run aggregation) on first use.  The main
   domain's slot is pre-seeded with [t.main_shard]; pool domains mint
   their own.  Only the registration list is shared, so the lock guards
   a cons, never real work. *)
let shard_of t =
  match Parallel.Local.find shard_slot ~epoch:t.epoch with
  | Some s -> s
  | None ->
      let s = fresh_shard () in
      Sync.Mutex.lock t.shards_lock;
      t.shards_ <- s :: t.shards_;
      Sync.Mutex.unlock t.shards_lock;
      Parallel.Local.set shard_slot ~epoch:t.epoch s;
      s

let time_build (shard : shard) f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  shard.build_s <- shard.build_s +. (Unix.gettimeofday () -. t0);
  r

let time_extract (shard : shard) f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  shard.extract_s <- shard.extract_s +. (Unix.gettimeofday () -. t0);
  r

let provenance t = t.blocks_

let pp_provenance ppf = function
  | Outbound { sender; via; group } ->
      Format.fprintf ppf "outbound[%a%a%a]" Asn.pp sender
        (fun ppf -> function
          | Some v -> Format.fprintf ppf "->%a" Asn.pp v
          | None -> Format.fprintf ppf "->direct")
        via
        (fun ppf -> function
          | Some g -> Format.fprintf ppf ",g%d" g
          | None -> ())
        group
  | Group_default { group } -> Format.fprintf ppf "default[g%d]" group
  | Untagged { owner } -> Format.fprintf ppf "untagged[%a]" Asn.pp owner
  | Catch_all -> Format.pp_print_string ppf "catch-all"
  | Unattributed -> Format.pp_print_string ppf "unattributed"

(* ------------------------------------------------------------------ *)
(* Destination-prefix restriction of a predicate.                      *)

(* [Some ps] means the predicate implies dst_ip is inside one of [ps];
   [None] means no destination constraint could be extracted.  Used to
   narrow the set of prefixes a clause overrides — a conservative
   over-approximation keeps correctness (the clause's own predicate is
   still part of the compiled rule). *)
let rec dst_restriction (p : Pred.t) : Prefix.t list option =
  match p with
  | Pred.Test pat -> Option.map (fun pre -> [ pre ]) pat.Pattern.dst_ip
  | Pred.And (a, b) -> (
      match (dst_restriction a, dst_restriction b) with
      | Some xs, Some ys ->
          Some
            (List.concat_map
               (fun x -> List.filter_map (fun y -> Prefix.inter x y) ys)
               xs)
      | (Some _ as r), None | None, (Some _ as r) -> r
      | None, None -> None)
  | Pred.Or (a, b) -> (
      match (dst_restriction a, dst_restriction b) with
      | Some xs, Some ys -> Some (xs @ ys)
      | _ -> None)
  | Pred.True | Pred.False | Pred.Not _ -> None

let restrict_set restriction set =
  match restriction with
  | None -> set
  | Some allowed ->
      Prefix.Set.filter
        (fun p -> List.exists (fun a -> Prefix.overlaps p a) allowed)
        set

(* ------------------------------------------------------------------ *)
(* Default-forwarding keys (pass 2 of the VNH computation, §4.2).      *)

(* Two prefixes share a default key iff every participant's best route
   for them uses the same next-hop interface.  Keys are memoized on the
   preference-ordered (advertiser, next hop) fingerprint: prefixes with
   equal fingerprints necessarily yield equal per-receiver choices, so
   the expensive per-receiver scan runs once per distinct fingerprint. *)
module Default_keys = struct
  type nonrec t = {
    config : Config.t;
    receivers : Asn.t list;
    fp_ids : ((Asn.t * Ipv4.t) list, int) Hashtbl.t;
    variants_of_id : (int, (Ipv4.t option * Asn.t list) list) Hashtbl.t;
    (* The memo tables may be consulted from pool domains. *)
    lock : Sync.Mutex.t;
  }

  let create config =
    {
      config;
      receivers =
        List.map (fun (p : Participant.t) -> p.asn) (Config.participants config);
      fp_ids = Hashtbl.create 256;
      variants_of_id = Hashtbl.create 256;
      lock = Sync.Mutex.create ();
    }

  (* Each receiver's default is the next hop of the first fingerprint
     entry whose advertiser exports to it.  Entries resolve their port
     once, entries with equal defaults share a slot, and receivers are
     grouped by slot, in participant order within a variant and variants
     in order of their first receiver. *)
  let variants_of_fingerprint t fp =
    let server = Config.server t.config in
    let entries = Array.of_list fp in
    let n = Array.length entries in
    (* Slot [n] holds receivers no entry exports to.  A next hop that
       resolves to no fabric port (an SDX-originated placeholder) gives
       no default either. *)
    let default_of =
      Array.init (n + 1) (fun i ->
          if i = n then None
          else
            let nh = snd entries.(i) in
            if Option.is_some (Config.port_of_next_hop t.config nh) then Some nh
            else None)
    in
    let slot = Array.make (n + 1) 0 in
    for i = 1 to n do
      let j = ref 0 in
      while not (Option.equal Ipv4.equal default_of.(!j) default_of.(i)) do
        incr j
      done;
      slot.(i) <- !j
    done;
    let rec first receiver i =
      if i = n then n
      else if
        Route_server.exports_to server ~advertiser:(fst entries.(i)) ~receiver
      then i
      else first receiver (i + 1)
    in
    let members = Array.make (n + 1) [] in
    let order = ref [] in
    List.iter
      (fun receiver ->
        let s = slot.(first receiver 0) in
        if members.(s) = [] then order := s :: !order;
        members.(s) <- receiver :: members.(s))
      t.receivers;
    List.rev_map (fun s -> (default_of.(s), List.rev members.(s))) !order

  let fingerprint t prefix =
    List.map
      (fun (r : Route.t) -> (r.learned_from, r.next_hop))
      (Route_server.ranked (Config.server t.config) prefix)

  let key_of_prefix t prefix =
    let fp = fingerprint t prefix in
    Sync.Mutex.lock t.lock;
    let id =
      match Hashtbl.find_opt t.fp_ids fp with
      | Some id -> id
      | None ->
          let id = Hashtbl.length t.fp_ids in
          Hashtbl.replace t.fp_ids fp id;
          (* [variants_of_fingerprint] only reads the config, so holding
             the lock across it is deadlock-free. *)
          Hashtbl.replace t.variants_of_id id (variants_of_fingerprint t fp);
          id
    in
    Sync.Mutex.unlock t.lock;
    id

  let variants t id =
    Sync.Mutex.lock t.lock;
    let v = Hashtbl.find t.variants_of_id id in
    Sync.Mutex.unlock t.lock;
    v

  (* Variants for a single prefix, bypassing the fingerprint memo — used
     by the incremental fast path, which must reflect the post-update
     routes even though the memo may hold stale entries. *)
  let variants_of_prefix t prefix = variants_of_fingerprint t (fingerprint t prefix)
end

(* ------------------------------------------------------------------ *)
(* Policy construction helpers.                                        *)

let in_ports_pred config (sender : Participant.t) =
  Pred.any_of_ports (Config.switch_ports_of config sender.asn)

let deliver_mods extra (port : Participant.port) switch_port =
  Mods.then_ extra (Mods.make ~dst_mac:port.mac ~port:switch_port ())

(* Resolve a [Default] clause: the packet's (possibly rewritten)
   destination address is re-resolved through the receiver's local RIB
   and delivered on the chosen route's port. *)
let resolve_default config ~receiver (mods : Mods.t) =
  match mods.Mods.dst_ip with
  | None -> None
  | Some addr -> (
      match Route_server.lookup_best (Config.server config) ~receiver addr with
      | None -> None
      | Some (_, route) -> (
          match Config.port_of_next_hop config route.next_hop with
          | None -> None
          | Some (_, port, n) -> Some (deliver_mods mods port n)))

(* The address a clause hands to [resolve_default], if any. *)
let default_rewrite (c : Ppolicy.clause) =
  match c.target with Ppolicy.Default -> c.mods.Mods.dst_ip | _ -> None

(* Delivery to a middlebox host's first port, bypassing BGP checks. *)
let redirect_mods config (mods : Mods.t) mbox_asn =
  let mbox = Config.participant config mbox_asn in
  match mbox.ports with
  | [] ->
      invalid_arg
        (Printf.sprintf "redirect target %s has no physical port"
           (Asn.to_string mbox_asn))
  | port :: _ ->
      deliver_mods mods port (Config.switch_port config mbox_asn port.index)

(* The action policy of one inbound clause of [receiver]. *)
let inbound_action config (receiver : Participant.t) (c : Ppolicy.clause) =
  match c.target with
  | Ppolicy.Phys k ->
      let port = Participant.port receiver k in
      let n = Config.switch_port config receiver.asn k in
      Policy.modify (deliver_mods c.mods port n)
  | Ppolicy.Redirect mbox -> Policy.modify (redirect_mods config c.mods mbox)
  | Ppolicy.Drop ->
      Policy.modify (Mods.then_ c.mods (Mods.make ~port:blackhole_port ()))
  | Ppolicy.Default -> (
      match resolve_default config ~receiver:receiver.asn c.mods with
      | Some m -> Policy.modify m
      | None ->
          (* No route for the rewritten destination: drop explicitly. *)
          Policy.modify (Mods.then_ c.mods (Mods.make ~port:blackhole_port ())))
  | Ppolicy.Peer asn ->
      invalid_arg
        (Printf.sprintf "inbound policy of %s forwards to peer %s"
           (Asn.to_string receiver.asn) (Asn.to_string asn))

(* A participant's inbound pipeline: its inbound clauses as an if_-chain,
   falling through to default delivery (or an explicit blackhole for
   remote participants, which have no port to deliver on).  Drops are
   always expressed as forwards to the blackhole port, never as
   empty-action rules: the layered classifier discards empty-action rules
   as totality filler (see [keep_forwards]). *)
let inbound_pipeline_ast config (receiver : Participant.t) ~default_deliver =
  let base =
    match default_deliver with
    | Some m -> Policy.modify m
    | None -> Policy.modify (Mods.make ~port:blackhole_port ())
  in
  List.fold_right
    (fun (c : Ppolicy.clause) acc ->
      Policy.if_ c.pred (inbound_action config receiver c) acc)
    receiver.inbound base

(* Pipeline caches are per-shard (domain-private), so lookups are plain
   hash-table reads with no locking.  Two domains compiling the same
   receiver each pay the (deterministic) compilation once — the price of
   lock-freedom, recovered many times over on the hot path. *)
let compiled_pipeline t shard config (receiver : Participant.t) ~default_deliver
    =
  let key = (receiver.Participant.asn, default_deliver) in
  match
    if t.memoize then Pipeline_cache.find_opt shard.cls_pipelines key else None
  with
  | Some c ->
      shard.memo_hits <- shard.memo_hits + 1;
      c
  | None ->
      let c =
        Classifier.compile (inbound_pipeline_ast config receiver ~default_deliver)
      in
      if t.memoize then Pipeline_cache.replace shard.cls_pipelines key c;
      c

(* The same pipeline as a diagram in the shard's manager.  Cache hits
   here are what make the FDD path sub-linear in groups: every group of
   a clause [seq]s the same pipeline diagram, so the manager's memo
   tables short-circuit all but the first composition. *)
let pipeline_fdd t shard config (receiver : Participant.t) ~default_deliver =
  let key = (receiver.Participant.asn, default_deliver) in
  match
    if t.memoize then Pipeline_cache.find_opt shard.fdd_pipelines key else None
  with
  | Some d ->
      shard.memo_hits <- shard.memo_hits + 1;
      d
  | None ->
      let d =
        Fdd.of_policy shard.fdd
          (inbound_pipeline_ast config receiver ~default_deliver)
      in
      if t.memoize then Pipeline_cache.replace shard.fdd_pipelines key d;
      d

(* Extraction runs once per distinct diagram per shard; per-group blocks
   are then sliced out of the cached classifier by pattern restriction.
   This is what makes the FDD path's per-group marginal cost proportional
   to the block's own rule count instead of the pipeline's size: the
   diagram walk happens once per clause, not once per (clause, group).
   Returns the diagrams to hand to the merge pass — the diagram itself on
   a fresh extraction, nothing on a hit (the merge would only re-import
   identical structure). *)
let extract_cached t shard d =
  let id = Fdd.node_id d in
  match if t.memoize then Hashtbl.find_opt shard.extracts id else None with
  | Some c ->
      shard.memo_hits <- shard.memo_hits + 1;
      (c, [])
  | None ->
      let c = time_extract shard (fun () -> Fdd.to_classifier d) in
      if t.memoize then Hashtbl.replace shard.extracts id c;
      (c, [ d ])

(* The group-independent head of an outbound clause — the sender's
   in-ports, the clause predicate, and the clause rewrites, but not the
   group's VMAC (that is restricted in per group after extraction). *)
let spec_head_fdd t shard config (spec : ospec) =
  match
    if t.memoize then Hashtbl.find_opt shard.head_fdds spec.spec_id else None
  with
  | Some d ->
      shard.memo_hits <- shard.memo_hits + 1;
      d
  | None ->
      let head_pred =
        Pred.and_ (in_ports_pred config spec.sender) spec.clause.pred
      in
      let d =
        Fdd.of_policy shard.fdd
          (Policy.seq
             [ Policy.filter head_pred; Policy.modify spec.clause.mods ])
      in
      if t.memoize then Hashtbl.replace shard.head_fdds spec.spec_id d;
      d

(* The shared tables are read and written from pool domains; the lock is
   held only around the table operation, never around diagram work, so a
   simultaneous miss costs at most one duplicated build — and both
   results are interchangeable, because hash-consing keeps diagrams
   canonical and extraction depends only on diagram structure. *)
let shared_find t tbl key =
  if not t.memoize then None
  else begin
    Sync.Mutex.lock t.shared_lock;
    let r = Hashtbl.find_opt tbl key in
    Sync.Mutex.unlock t.shared_lock;
    r
  end

let shared_put t tbl key v =
  if t.memoize then begin
    Sync.Mutex.lock t.shared_lock;
    if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key v;
    Sync.Mutex.unlock t.shared_lock
  end

(* [owner]'s extracted inbound pipeline for one delivery port, through
   the run-wide shared cache.  [dport] must determine [default_deliver]
   (it does: the delivery mods are a function of the owner's port
   record, which the switch port number identifies). *)
let shared_pipeline_cls t shard config (owner : Participant.t) ~default_deliver
    ~dport =
  let key = (owner.Participant.asn, dport) in
  match shared_find t t.shared_pipes key with
  | Some c ->
      shard.memo_hits <- shard.memo_hits + 1;
      (c, [])
  | None ->
      let pipe =
        time_build shard (fun () ->
            pipeline_fdd t shard config owner ~default_deliver)
      in
      let c, fresh = extract_cached t shard pipe in
      shared_put t t.shared_pipes key c;
      (c, fresh)

(* ------------------------------------------------------------------ *)
(* Confinement: discarding totality filler.                            *)

(* The final classifier is a concatenation of per-clause and per-group
   blocks over a shared drop-all tail.  Within a block, every meaningful
   decision is a forwarding action (explicit drops are blackhole
   forwards), so empty-action rules are totality filler produced by
   predicate compilation; they must be discarded or they would shadow
   the blocks underneath.  Every surviving rule carries the block's
   pinning constraint (sender in-port, or the group's VMAC) by
   construction, since it passed the block's head filter. *)
let keep_forwards (c : Classifier.t) =
  List.filter (fun (r : Classifier.rule) -> r.action <> []) c

(* ------------------------------------------------------------------ *)
(* Per-clause rule generation (optimized path, §4.3.1).                *)

(* The route [via] announced covering the group, used to pick the
   delivery port on [via]'s router. *)
let route_from_via config ~via group_prefixes =
  let server = Config.server config in
  let rec go = function
    | [] -> None
    | p :: rest -> (
        match Route_server.route_from server ~via p with
        | Some _ as r -> r
        | None -> go rest)
  in
  go group_prefixes

let delivery_port_for_via config (via : Participant.t) group_prefixes =
  let fallback () =
    match via.ports with
    | [] -> None
    | port :: _ -> Some (port, Config.switch_port config via.asn port.index)
  in
  match route_from_via config ~via:via.asn group_prefixes with
  | None -> fallback ()
  | Some route -> (
      match Config.port_of_next_hop config route.next_hop with
      | Some (_, port, n) -> Some (port, n)
      | None -> fallback ())

(* Rules for one outbound clause applied to one prefix group: match the
   sender's in-port, the clause predicate, and the group's VMAC; apply
   the clause rewrites; hand to the target peer's inbound pipeline.

   Each builder returns its rule block together with the diagrams it
   composed (empty in crossproduct mode) so the coordinator can
   hash-cons them into the main manager during the merge phase. *)
let clause_group_rules t shard config (spec : ospec) (g : group) =
  let sender_ports = Config.switch_ports_of config spec.sender.asn in
  if sender_ports = [] then ([], [])
  else
    match spec.via with
    | Some via_asn -> (
        let via = Config.participant config via_asn in
        let delivery =
          let key = (via_asn, g.id) in
          match Hashtbl.find_opt shard.delivery key with
          | Some d -> d
          | None ->
              let d = delivery_port_for_via config via g.prefixes in
              Hashtbl.replace shard.delivery key d;
              d
        in
        match delivery with
        | None -> ([], [])
        | Some (port, n) -> (
            let deliver = Some (deliver_mods Mods.identity port n) in
            shard.seq_ops <- shard.seq_ops + 1;
            match t.mode with
            | `Crossproduct ->
                let head_pred =
                  Pred.conj
                    [
                      in_ports_pred config spec.sender;
                      spec.clause.pred;
                      Pred.dst_mac g.vmac;
                    ]
                in
                let head =
                  Policy.seq
                    [ Policy.filter head_pred; Policy.modify spec.clause.mods ]
                in
                let pipeline =
                  compiled_pipeline t shard config via ~default_deliver:deliver
                in
                ( keep_forwards (Classifier.seq (Classifier.compile head) pipeline),
                  [] )
            | `Fdd ->
                (* The group-independent body (clause head composed with
                   the via pipeline) is built and extracted once per run;
                   the group's share is the VMAC slice of that
                   classifier.  Restricting the input pattern commutes
                   with the filter inside the diagram, so this is
                   per-packet identical to composing the VMAC into the
                   head. *)
                let body_cls, fresh =
                  match shared_find t t.shared_bodies (spec.spec_id, n) with
                  | Some c ->
                      shard.memo_hits <- shard.memo_hits + 1;
                      (c, [])
                  | None ->
                      let body =
                        time_build shard (fun () ->
                            let pipeline =
                              pipeline_fdd t shard config via
                                ~default_deliver:deliver
                            in
                            Fdd.seq shard.fdd
                              (spec_head_fdd t shard config spec)
                              pipeline)
                      in
                      let c, fresh = extract_cached t shard body in
                      shared_put t t.shared_bodies (spec.spec_id, n) c;
                      (c, fresh)
                in
                ( keep_forwards
                    (Classifier.restrict (Pattern.make ~dst_mac:g.vmac ())
                       body_cls),
                  fresh )))
    | None -> ([], [])

(* Rules for outbound clauses that do not target a peer (Drop, Default
   with a rewrite, or a forward to the sender's own port).  These match
   on the clause predicate directly rather than on a VMAC. *)
let clause_direct_rules t shard config (spec : ospec) =
  let sender = spec.sender in
  let sender_ports = Config.switch_ports_of config sender.asn in
  if sender_ports = [] then ([], [])
  else
    let head_pred = Pred.and_ (in_ports_pred config sender) spec.clause.pred in
    let action =
      match spec.clause.target with
      | Ppolicy.Drop ->
          Some
            (Policy.modify
               (Mods.then_ spec.clause.mods (Mods.make ~port:blackhole_port ())))
      | Ppolicy.Phys k ->
          let port = Participant.port sender k in
          let n = Config.switch_port config sender.asn k in
          Some (Policy.modify (deliver_mods spec.clause.mods port n))
      | Ppolicy.Default -> (
          match resolve_default config ~receiver:sender.asn spec.clause.mods with
          | Some m -> Some (Policy.modify m)
          | None -> None)
      | Ppolicy.Redirect mbox ->
          Some (Policy.modify (redirect_mods config spec.clause.mods mbox))
      | Ppolicy.Peer _ -> None
    in
    match action with
    | None -> ([], [])
    | Some act -> (
        shard.seq_ops <- shard.seq_ops + 1;
        let pol = Policy.seq [ Policy.filter head_pred; act ] in
        match t.mode with
        | `Crossproduct -> (keep_forwards (Classifier.compile pol), [])
        | `Fdd ->
            let d = time_build shard (fun () -> Fdd.of_policy shard.fdd pol) in
            ( keep_forwards (time_extract shard (fun () -> Fdd.to_classifier d)),
              [ d ] ))

(* Default-forwarding rules for one group: traffic tagged with the
   group's VMAC runs through the next-hop participant's inbound pipeline
   (so inbound traffic engineering applies to default traffic too).

   When participants disagree on the best next hop, minority variants are
   pinned to their senders' in-ports and installed above one unpinned
   rule block for the most common variant — so a dual-announced prefix
   costs a couple of extra rules, not one rule per participant.  Variants
   whose senders cannot emit tagged traffic at all (no resolvable next
   hop and no originator pipeline) are dropped outright. *)
let group_default_rules t shard config (g : group) ~originator =
  (* [patterns] is [pred] split into disjoint patterns (one per in-port
     variant), so the FDD path can slice the owner's extracted pipeline
     instead of re-walking its diagram per group. *)
  let with_pipeline pred patterns owner ~deliver ~dport =
    shard.seq_ops <- shard.seq_ops + 1;
    match t.mode with
    | `Crossproduct ->
        let pipeline =
          compiled_pipeline t shard config owner ~default_deliver:deliver
        in
        ( keep_forwards (Classifier.seq (Classifier.compile_pred pred) pipeline),
          [] )
    | `Fdd ->
        let pipe_cls, fresh =
          shared_pipeline_cls t shard config owner ~default_deliver:deliver
            ~dport
        in
        ( List.concat_map
            (fun pat -> keep_forwards (Classifier.restrict pat pipe_cls))
            patterns,
          fresh )
  in
  let block_for pred patterns nh_opt =
    match nh_opt with
    | Some nh -> (
        match Config.port_of_next_hop config nh with
        | None -> None
        | Some (owner, port, n) ->
            Some
              (with_pipeline pred patterns owner
                 ~deliver:(Some (deliver_mods Mods.identity port n))
                 ~dport:(Some n)))
    | None -> (
        (* No next hop: SDX-originated prefixes terminate at the
           originator's inbound pipeline (wide-area load balancing). *)
        match originator with
        | None -> None
        | Some owner ->
            Some (with_pipeline pred patterns owner ~deliver:None ~dport:None))
  in
  let vmac_pred = Pred.dst_mac g.vmac in
  let emitting =
    List.filter
      (fun (nh_opt, _) ->
        match nh_opt with
        | Some nh -> Option.is_some (Config.port_of_next_hop config nh)
        | None -> Option.is_some originator)
      g.default_variants
  in
  match
    List.sort
      (fun (_, r1) (_, r2) -> Int.compare (List.length r2) (List.length r1))
      emitting
  with
  | [] -> ([], [])
  | (majority_nh, _) :: minorities ->
      let minority_blocks =
        List.filter_map
          (fun (nh_opt, receivers) ->
            let ports =
              List.concat_map
                (fun asn -> Config.switch_ports_of config asn)
                receivers
            in
            if ports = [] then None
            else
              let pred = Pred.and_ (Pred.any_of_ports ports) vmac_pred in
              let patterns =
                List.map (fun n -> Pattern.make ~port:n ~dst_mac:g.vmac ()) ports
              in
              block_for pred patterns nh_opt)
          minorities
      in
      let majority_blocks =
        match block_for vmac_pred [ Pattern.make ~dst_mac:g.vmac () ] majority_nh with
        | Some b -> [ b ]
        | None -> []
      in
      let blocks = minority_blocks @ majority_blocks in
      (List.concat_map fst blocks, List.concat_map snd blocks)

(* MAC-learning rules for default-only (ungrouped) prefixes: the route
   server leaves their next hop untouched, so packets arrive with the
   real next-hop interface MAC; forward them on that interface's port
   through the owner's inbound pipeline. *)
let participant_untagged_rules t shard config (p : Participant.t) =
  let per_port (port : Participant.port) =
    let n = Config.switch_port config p.asn port.index in
    let deliver = Some (deliver_mods Mods.identity port n) in
    shard.seq_ops <- shard.seq_ops + 1;
    match t.mode with
    | `Crossproduct ->
        let pipeline =
          compiled_pipeline t shard config p ~default_deliver:deliver
        in
        ( keep_forwards
            (Classifier.seq
               (Classifier.compile_pred (Pred.dst_mac port.mac))
               pipeline),
          [] )
    | `Fdd ->
        let pipe_cls, fresh =
          shared_pipeline_cls t shard config p ~default_deliver:deliver
            ~dport:(Some n)
        in
        ( keep_forwards
            (Classifier.restrict (Pattern.make ~dst_mac:port.mac ()) pipe_cls),
          fresh )
  in
  let blocks = List.map per_port p.ports in
  (List.concat_map fst blocks, List.concat_map snd blocks)

let originator_of config prefix =
  List.find_opt
    (fun (p : Participant.t) -> List.exists (Prefix.equal prefix) p.originated)
    (Config.participants config)

let compose_slot t shard config = function
  | Via_slot (spec, g) -> clause_group_rules t shard config spec g
  | Direct_slot spec -> clause_direct_rules t shard config spec
  | Default_slot g ->
      let originator = originator_of config (List.hd g.prefixes) in
      group_default_rules t shard config g ~originator
  | Untagged_slot p -> participant_untagged_rules t shard config p

let slot_key = function
  | Via_slot (spec, g) -> Via_block (spec.spec_id, g.id)
  | Direct_slot spec -> Direct_block spec.spec_id
  | Default_slot g -> Default_block g.id
  | Untagged_slot p -> Untagged_block p.asn

let slot_provenance = function
  | Via_slot (spec, g) ->
      Outbound { sender = spec.sender.asn; via = spec.via; group = Some g.id }
  | Direct_slot spec -> Outbound { sender = spec.sender.asn; via = None; group = None }
  | Default_slot g -> Group_default { group = g.id }
  | Untagged_slot p -> Untagged { owner = p.asn }

(* The optimized classifier's block order: for each outbound clause in
   collection order, its block per covering class (classes in [groups]
   order) or its one direct block; then each class's default block; then
   each participant's untagged layer.  The catch-all follows. *)
let slots t config ~groups ~groups_by_spec =
  List.concat_map
    (fun spec ->
      match spec.via with
      | Some _ -> List.map (fun g -> Via_slot (spec, g)) (groups_by_spec spec)
      | None -> [ Direct_slot spec ])
    t.ospecs
  @ List.map (fun g -> Default_slot g) groups
  @ List.map (fun p -> Untagged_slot p) (Config.participants config)

(* The classes each via-spec covers, in [groups] order, read off the
   class keys (origin-band ids name no clause). *)
let covering_groups t groups =
  let nspecs = Array.length t.ospec_arr in
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun g ->
      match Hashtbl.find_opt t.class_keys g.id with
      | Some (ids, _) ->
          List.iter
            (fun i ->
              if i < nspecs then
                Hashtbl.replace tbl i
                  (g :: Option.value (Hashtbl.find_opt tbl i) ~default:[]))
            ids
      | None -> ())
    (List.rev groups);
  fun spec -> Option.value (Hashtbl.find_opt tbl spec.spec_id) ~default:[]

(* ------------------------------------------------------------------ *)
(* Collecting outbound specs and originated prefixes.                  *)

let collect_ospecs config =
  let server = Config.server config in
  let next_id = ref 0 in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  List.concat_map
    (fun (sender : Participant.t) ->
      List.map
        (fun (clause : Ppolicy.clause) ->
          let restriction = dst_restriction clause.pred in
          match clause.target with
          | Ppolicy.Peer via ->
              {
                spec_id = fresh_id ();
                sender;
                clause;
                via = Some via;
                restriction;
                prefix_set =
                  lazy
                    (restrict_set restriction
                       (Prefix.Set.of_list
                          (Route_server.reachable_prefixes server
                             ~receiver:sender.asn ~via)));
              }
          | Ppolicy.Drop | Ppolicy.Default | Ppolicy.Phys _ | Ppolicy.Redirect _ ->
              (* These clauses compile to rules matching the predicate
                 directly rather than a VMAC tag, so they impose no
                 prefix-group structure. *)
              {
                spec_id = fresh_id ();
                sender;
                clause;
                via = None;
                restriction;
                prefix_set = lazy Prefix.Set.empty;
              })
        sender.outbound)
    (Config.participants config)

let originated_sets config =
  List.filter_map
    (fun (p : Participant.t) ->
      match p.originated with
      | [] -> None
      | prefixes -> Some (p, Prefix.Set.of_list prefixes))
    (Config.participants config)

(* ------------------------------------------------------------------ *)
(* Group computation.                                                  *)

(* Groups from a deterministic partition: cells arrive sorted by their
   smallest member with members in prefix order, so positional ids and
   [Vnh.fresh] draws land identically however the partition was
   computed. *)
let groups_of_keyed_parts keys vnh_alloc parts =
  List.mapi
    (fun id (key, prefixes) ->
      let vnh, vmac = Vnh.fresh vnh_alloc in
      { id; vnh; vmac; prefixes; default_variants = Default_keys.variants keys key })
    parts

let groups_of_parts keys vnh_alloc parts =
  groups_of_keyed_parts keys vnh_alloc
    (List.map
       (fun prefixes ->
         (Default_keys.key_of_prefix keys (List.hd prefixes), prefixes))
       parts)

(* The pre-ISSUE-9 grouping, kept verbatim as the correctness oracle
   (same role [compile_crossproduct] plays for composition): per-spec
   reachability sets materialized eagerly, then the pairwise-signature
   [Fec] partition. *)
let compute_groups_naive config vnh_alloc ospecs =
  let t_reach = Unix.gettimeofday () in
  let keys = Default_keys.create config in
  let origin_sets = List.map snd (originated_sets config) in
  let sets = List.map (fun s -> Lazy.force s.prefix_set) ospecs @ origin_sets in
  let reachability_s = Unix.gettimeofday () -. t_reach in
  let t_group = Unix.gettimeofday () in
  let parts =
    Fec.partition ~sets ~default_key:(Default_keys.key_of_prefix keys)
  in
  let groups = groups_of_parts keys vnh_alloc parts in
  (List.map (fun g -> (g, None)) groups, reachability_s,
   Unix.gettimeofday () -. t_group)

(* The naive partition alone (no VNH draws, no group records) — the
   oracle the bench compares the interned pipeline's output against,
   and the timing baseline for its speedup figure. *)
let group_partition_naive config =
  let ospecs = collect_ospecs config in
  let keys = Default_keys.create config in
  let origin_sets = List.map snd (originated_sets config) in
  let sets = List.map (fun s -> Lazy.force s.prefix_set) ospecs @ origin_sets in
  Fec.partition ~sets ~default_key:(Default_keys.key_of_prefix keys)

(* --- The sub-linear pipeline (ISSUE 9). ---------------------------- *)

(* Reachability pass: sparse export vectors, produced per id band — for
   each via-spec id (and, in the band above [nspecs], each origin set),
   the list of prefixes it covers.  One job per diversion target scans
   that target's Adj-RIB-in ONCE for all of its unrestricted specs (the
   old path materialized a [Prefix.Set.t] per spec, re-running the
   export checks per spec x route); destination-restricted specs
   resolve through the prefix trie instead, so a clause covering a
   handful of prefixes never pays a million-route scan.  Jobs only read
   route-server state, so they fan out through [run]; each job conses
   straight onto its own per-spec member lists (no per-route hashing),
   and since every spec id belongs to exactly one via, the merge is a
   plain array fill — independent of job completion order. *)
let export_vectors config ospecs ~run =
  let server = Config.server config in
  let trivial_filter = Route_server.trivial_route_filter server in
  let by_via : (Asn.t, ospec list ref) Hashtbl.t = Hashtbl.create 64 in
  let via_order = ref [] in
  List.iter
    (fun spec ->
      match spec.via with
      | None -> ()
      | Some via -> (
          match Hashtbl.find_opt by_via via with
          | Some l -> l := spec :: !l
          | None ->
              Hashtbl.replace by_via via (ref [ spec ]);
              via_order := via :: !via_order))
    ospecs;
  let covers (spec : ospec) (route : Route.t) =
    Route_server.loop_free route ~receiver:spec.sender.asn
    && (trivial_filter
       || Route_server.route_filter_passes server route
            ~receiver:spec.sender.asn)
  in
  let via_job via () =
    (* Export policy is a property of the (advertiser, receiver) pair,
       not of individual routes: specs the via exports nothing to
       contribute no bits at all. *)
    let specs =
      List.filter
        (fun s ->
          Route_server.exports_to server ~advertiser:via ~receiver:s.sender.asn)
        (List.rev !(Hashtbl.find by_via via))
    in
    let restricted, unrestricted =
      List.partition (fun s -> s.restriction <> None) specs
    in
    let unrestricted = List.map (fun s -> (s, ref [])) unrestricted in
    if unrestricted <> [] then
      Route_server.fold_adj_in server ~via
        (fun prefix route () ->
          List.iter
            (fun (spec, members) ->
              if covers spec route then members := prefix :: !members)
            unrestricted)
        ();
    List.rev_append
      (List.rev_map (fun (s, members) -> (s.spec_id, !members)) unrestricted)
      (List.map
         (fun spec ->
           let seen = Hashtbl.create 64 in
           let members = ref [] in
           List.iter
             (fun allowed ->
               Route_server.fold_announced_overlapping server allowed
                 (fun prefix () ->
                   if not (Hashtbl.mem seen prefix) then begin
                     Hashtbl.add seen prefix ();
                     match Route_server.route_from server ~via prefix with
                     | Some route ->
                         if covers spec route then members := prefix :: !members
                     | None -> ()
                   end)
                 ())
             (Option.get spec.restriction);
           (spec.spec_id, !members))
         restricted)
  in
  let frags = run (List.rev_map via_job !via_order) in
  let origin = originated_sets config in
  let nspecs = List.length ospecs in
  let per_id = Array.make (nspecs + List.length origin) [] in
  List.iter (List.iter (fun (i, members) -> per_id.(i) <- members)) frags;
  List.iteri
    (fun j (_, set) ->
      per_id.(nspecs + j) <- Prefix.Set.fold (fun p acc -> p :: acc) set [])
    origin;
  per_id

(* Group pass: intern each prefix's set-bit list — equal vectors
   collapse onto one canonical class id in O(set bits), replacing the
   pairwise-signature hashing of [Fec.partition] (whose [int list] keys
   degrade badly once vectors grow past the polymorphic hash's
   traversal bound).  Per-prefix lists are accumulated by scanning the
   id bands in ascending order, so every list arrives duplicate-free
   and descending-sorted and the interner probes it as-is: no
   per-prefix sort, and the packed bitset is materialized once per
   distinct class, not per prefix.  Cells are keyed by (class id,
   default key id) and re-sorted by smallest member, so the output is
   structurally identical to the naive partition.  [grouped] carries
   each class's full set-bit list (via band and origin band): [compile]
   seeds the incremental class table with it and band-filters the
   per-spec fan-out view. *)
let compute_groups_interned config vnh_alloc ospecs ~run =
  let t_reach = Unix.gettimeofday () in
  let per_id = export_vectors config ospecs ~run in
  let reachability_s = Unix.gettimeofday () -. t_reach in
  let t_group = Unix.gettimeofday () in
  let keys = Default_keys.create config in
  let width = Array.length per_id in
  (* Pivot the id-major fragment lists to prefix-major with one packed
     int sort instead of a prefix-keyed hashtable: each (prefix, id)
     pair packs into 62 bits — network 32, mask length 6, id 24 — so
     sorting the flat array orders pairs by (prefix, id) and every
     prefix's export vector is a contiguous run with ascending ids.
     The scan then conses each run backwards (descending ids, the
     interner's rev-sorted probe shape) and touches one cache line per
     pair where the hashtable pivot chased a bucket pointer per pair. *)
  let npairs =
    Array.fold_left (fun n members -> n + List.length members) 0 per_id
  in
  let packed = Array.make (max npairs 1) 0 in
  profile_stage "grp.pivot" (fun () ->
      let pos = ref 0 in
      Array.iteri
        (fun i members ->
          List.iter
            (fun (p : Prefix.t) ->
              let pkey = (Ipv4.to_int p.Prefix.network lsl 6) lor p.Prefix.len in
              packed.(!pos) <- (pkey lsl 24) lor i;
              incr pos)
            members)
        per_id;
      Array.sort (fun (a : int) b -> Int.compare a b) packed);
  let interner = Bitset.Interner.create ~expected:((npairs / 16) + 16) () in
  let cells : (int * int, Prefix.t list ref) Hashtbl.t = Hashtbl.create 4096 in
  let ids_of_class : (int, int list) Hashtbl.t = Hashtbl.create 1024 in
  profile_stage "grp.scan" (fun () ->
      let flush lo hi =
        let pkey = packed.(lo) lsr 24 in
        let prefix = Prefix.make (Ipv4.of_int (pkey lsr 6)) (pkey land 63) in
        let rev_ids = ref [] in
        for k = lo to hi - 1 do
          rev_ids := (packed.(k) land 0xFFFFFF) :: !rev_ids
        done;
        let cls = Bitset.Interner.intern_rev_sorted interner ~width !rev_ids in
        if not (Hashtbl.mem ids_of_class cls.Bitset.Interner.id) then
          Hashtbl.add ids_of_class cls.Bitset.Interner.id
            cls.Bitset.Interner.ids;
        let key =
          (cls.Bitset.Interner.id, Default_keys.key_of_prefix keys prefix)
        in
        match Hashtbl.find_opt cells key with
        | Some members -> members := prefix :: !members
        | None -> Hashtbl.replace cells key (ref [ prefix ])
      in
      if npairs > 0 then begin
        let run_start = ref 0 in
        for k = 1 to npairs do
          if k = npairs || packed.(k) lsr 24 <> packed.(!run_start) lsr 24
          then begin
            flush !run_start k;
            run_start := k
          end
        done
      end);
  let parts =
    profile_stage "grp.parts" @@ fun () ->
    List.sort
      (fun (_, _, a) (_, _, b) ->
        match (a, b) with
        | p :: _, q :: _ -> Prefix.compare p q
        | _ -> 0)
      (Hashtbl.fold
         (fun (cls_id, key_id) members acc ->
           ( Hashtbl.find ids_of_class cls_id,
             key_id,
             List.sort Prefix.compare !members )
           :: acc)
         cells [])
  in
  let groups =
    profile_stage "grp.mint" @@ fun () ->
    groups_of_keyed_parts keys vnh_alloc
      (List.map (fun (_, key_id, members) -> (key_id, members)) parts)
  in
  let grouped = List.map2 (fun (ids, _, _) g -> (g, Some ids)) parts groups in
  (grouped, reachability_s, Unix.gettimeofday () -. t_group)

(* ------------------------------------------------------------------ *)
(* The optimized pipeline.                                             *)

let drop_all_rule = Classifier.drop_all

(* The optimized classifier is a concatenation of independent rule
   blocks — one per (via-clause, group) pair, per direct clause, per
   group default, per participant's untagged layer.  Each block is a
   pure function of the (read-only during compilation) config and route
   server state, so the blocks are built as a job list handed to [run]
   (sequential or a domain pool) and concatenated in the original
   order: the output is structurally identical either way. *)
let build_optimized t config ~groups_by_spec ~run =
  let slots =
    profile_stage "joblist" (fun () ->
        slots t config ~groups:t.groups_ ~groups_by_spec)
  in
  (if Lazy.force profile_on then
     Printf.eprintf "[profile] jobs: %d over %d groups\n%!" (List.length slots)
       (List.length t.groups_));
  (* The composition stage — fanning the rule-generation jobs out and
     merging shard diagrams back — is timed on its own: it is the stage
     the FDD core replaces, so both engines report a comparable
     [compose_s] (see the compile bench). *)
  let compose_t0 = Unix.gettimeofday () in
  let results =
    profile_stage "run" (fun () ->
        run
          (List.map (fun s () -> compose_slot t (shard_of t) config s) slots))
  in
  let blocks = List.map fst results in
  if t.rebuildable then
    List.iter2
      (fun s rules -> Hashtbl.replace t.block_store (slot_key s) rules)
      slots blocks;
  (* Shard-merge pass: hash-cons every block diagram (built in whichever
     shard manager its job's domain owned) into the main manager, so the
     post-merge node/table metrics describe one shared population. *)
  let merge_t0 = Unix.gettimeofday () in
  List.iter
    (fun (_, fdds) ->
      List.iter (fun d -> ignore (Fdd.import t.main_shard.fdd d)) fdds)
    results;
  let merge_s = Unix.gettimeofday () -. merge_t0 in
  let compose_s = Unix.gettimeofday () -. compose_t0 in
  let provs =
    List.map2 (fun s rules -> (slot_provenance s, List.length rules)) slots blocks
    @ [ (Catch_all, List.length drop_all_rule) ]
  in
  (List.concat blocks @ drop_all_rule, provs, merge_s, compose_s)

(* ------------------------------------------------------------------ *)
(* The naive pipeline (ablation): literal Pyretic-style composition.   *)

let build_naive t config =
  let default_ast =
    let group_terms =
      List.concat_map
        (fun g ->
          let originator = originator_of config (List.hd g.prefixes) in
          List.filter_map
            (fun (nh_opt, receivers) ->
              let pipeline =
                match nh_opt with
                | Some nh -> (
                    match Config.port_of_next_hop config nh with
                    | None -> None
                    | Some (owner, port, n) ->
                        Some
                          (inbound_pipeline_ast config owner
                             ~default_deliver:
                               (Some (deliver_mods Mods.identity port n))))
                | None ->
                    Option.map
                      (fun owner ->
                        inbound_pipeline_ast config owner ~default_deliver:None)
                      originator
              in
              (* Each variant only applies to the senders whose best route
                 it is — without the pin, a packet would match every
                 variant's term and be multicast. *)
              let ports =
                List.concat_map
                  (fun asn -> Config.switch_ports_of config asn)
                  receivers
              in
              Option.map
                (fun pl ->
                  Policy.seq
                    [
                      Policy.filter
                        (Pred.and_ (Pred.any_of_ports ports) (Pred.dst_mac g.vmac));
                      pl;
                    ])
                pipeline)
            g.default_variants)
        t.groups_
    in
    let port_terms =
      List.concat_map
        (fun (p : Participant.t) ->
          List.map
            (fun (port : Participant.port) ->
              let n = Config.switch_port config p.asn port.index in
              Policy.seq
                [
                  Policy.filter (Pred.dst_mac port.mac);
                  inbound_pipeline_ast config p
                    ~default_deliver:(Some (deliver_mods Mods.identity port n));
                ])
            p.ports)
        (Config.participants config)
    in
    Policy.union (group_terms @ port_terms)
  in
  let sender_ast (sender : Participant.t) =
    let peer_clause_action spec via_asn g =
      let via = Config.participant config via_asn in
      match delivery_port_for_via config via g.prefixes with
      | None -> Policy.drop
      | Some (port, n) ->
          Policy.seq
            [
              Policy.modify spec.clause.mods;
              inbound_pipeline_ast config via
                ~default_deliver:(Some (deliver_mods Mods.identity port n));
            ]
    in
    (* Direct clauses (drop, own port, rewrite-and-default, middlebox
       steering) match the predicate itself, with no VMAC involved. *)
    let direct_clause_action spec =
      match spec.clause.target with
      | Ppolicy.Drop ->
          Policy.modify
            (Mods.then_ spec.clause.mods (Mods.make ~port:blackhole_port ()))
      | Ppolicy.Phys k ->
          let port = Participant.port sender k in
          let n = Config.switch_port config sender.asn k in
          Policy.modify (deliver_mods spec.clause.mods port n)
      | Ppolicy.Redirect mbox ->
          Policy.modify (redirect_mods config spec.clause.mods mbox)
      | Ppolicy.Default -> (
          match resolve_default config ~receiver:sender.asn spec.clause.mods with
          | Some m -> Policy.modify m
          | None ->
              Policy.modify
                (Mods.then_ spec.clause.mods (Mods.make ~port:blackhole_port ())))
      | Ppolicy.Peer _ -> Policy.drop
    in
    let specs =
      List.filter (fun s -> Asn.equal s.sender.Participant.asn sender.asn) t.ospecs
    in
    let chain =
      List.fold_right
        (fun spec acc ->
          match spec.via with
          | Some via_asn ->
              let groups =
                List.filter
                  (fun g ->
                    Prefix.Set.mem (List.hd g.prefixes)
                      (Lazy.force spec.prefix_set))
                  t.groups_
              in
              List.fold_right
                (fun g acc ->
                  Policy.if_
                    (Pred.and_ spec.clause.pred (Pred.dst_mac g.vmac))
                    (peer_clause_action spec via_asn g)
                    acc)
                groups acc
          | None ->
              Policy.if_ spec.clause.pred (direct_clause_action spec) acc)
        specs default_ast
    in
    Policy.seq [ Policy.filter (in_ports_pred config sender); chain ]
  in
  let terms =
    List.filter_map
      (fun (p : Participant.t) ->
        if Participant.is_remote p then None else Some (sender_ast p))
      (Config.participants config)
  in
  Classifier.compile (Policy.union terms)

(* ------------------------------------------------------------------ *)

let register_arp t config =
  List.iter (fun g -> Sdx_arp.Responder.register t.arp_ g.vnh g.vmac) t.groups_;
  List.iter
    (fun (p : Participant.t) ->
      List.iter
        (fun (port : Participant.port) ->
          Sdx_arp.Responder.register t.arp_ port.ip port.mac)
        p.ports)
    (Config.participants config)

let compile ?(optimized = true) ?(memoize = true) ?(ir = `Fdd)
    ?(grouping = `Interned) ?domains config vnh_alloc =
  let t0 = Unix.gettimeofday () in
  let run jobs =
    let exec pool =
      if Parallel.size pool <= 1 then List.map (fun job -> job ()) jobs
      else Parallel.map pool (fun job -> job ()) jobs
    in
    match domains with
    | Some n when n <= 1 -> List.map (fun job -> job ()) jobs
    | Some n -> Parallel.with_pool ~domains:n exec
    | None -> exec (Parallel.global ())
  in
  let ospecs = profile_stage "ospecs" (fun () -> collect_ospecs config) in
  (* Group computation allocates VNHs through [vnh_alloc] on the
     coordinating domain; only the interned pipeline's read-only
     reachability scans fan out. *)
  let grouped, reachability_s, group_s =
    profile_stage "groups" (fun () ->
        match grouping with
        | `Interned -> compute_groups_interned config vnh_alloc ospecs ~run
        | `Naive -> compute_groups_naive config vnh_alloc ospecs)
  in
  let groups_ = List.map fst grouped in
  let by_prefix = Hashtbl.create 1024 in
  List.iter
    (fun g -> List.iter (fun p -> Hashtbl.replace by_prefix p g) g.prefixes)
    groups_;
  (* Interned grouping leaves its class signatures behind: the canonical
     class table the incremental fast path migrates into, keyed on the
     full set-bit list plus default fingerprint, and its inverse. *)
  let class_intern = Class_tbl.create 1024 in
  let class_keys = Hashtbl.create 1024 in
  (match grouping with
  | `Naive -> ()
  | `Interned ->
      let server = Config.server config in
      List.iter
        (fun (g, mem) ->
          (* Every member of a cell shares one fingerprint id, so the
             head's fingerprint is the class's. *)
          let head = List.hd g.prefixes in
          let fp =
            List.map
              (fun (r : Route.t) -> (r.learned_from, r.next_hop))
              (Route_server.ranked server head)
          in
          let key = (Option.value mem ~default:[], fp) in
          Class_tbl.replace class_intern key g;
          Hashtbl.replace class_keys g.id key)
        grouped);
  let default_rewrites =
    List.concat_map
      (fun (p : Participant.t) ->
        List.filter_map
          (fun c -> Option.map (fun addr -> (Some p.asn, addr)) (default_rewrite c))
          p.inbound)
      (Config.participants config)
    @ List.filter_map
        (fun s ->
          match s.via with
          | None -> Option.map (fun addr -> (None, addr)) (default_rewrite s.clause)
          | Some _ -> None)
        ospecs
  in
  let epoch = Sync.Atomic.fetch_and_add epoch_counter 1 in
  let main_shard = fresh_shard () in
  (* Seed the coordinating domain's slot so jobs the submitter drains
     itself land in [main_shard], and so the fast path's later use of
     [main_shard] agrees with what this run's DLS says. *)
  Parallel.Local.set shard_slot ~epoch main_shard;
  let t =
    {
      classifier = [];
      groups_;
      by_prefix;
      arp_ = Sdx_arp.Responder.create ();
      stats_ = zero_stats;
      ospecs;
      ospec_arr = Array.of_list ospecs;
      memoize;
      mode = ir;
      epoch;
      main_shard;
      shared_bodies = Hashtbl.create 256;
      shared_pipes = Hashtbl.create 256;
      shared_lock = Sync.Mutex.create ();
      shards_ = [ main_shard ];
      shards_lock = Sync.Mutex.create ();
      next_group_id = List.length groups_;
      blocks_ = [];
      batch_groups_ = [];
      retired_groups_ = [];
      class_intern;
      class_keys;
      block_store = Hashtbl.create 1024;
      rebuildable = optimized && grouping = `Interned;
      default_rewrites;
    }
  in
  let groups_by_spec =
    match grouping with
    | `Interned -> covering_groups t groups_
    | `Naive ->
        (* Naive grouping left no class signatures behind; fall back to
           the eager per-spec reachability sets. *)
        fun spec ->
          List.filter
            (fun g ->
              Prefix.Set.mem (List.hd g.prefixes) (Lazy.force spec.prefix_set))
            groups_
  in
  let classifier, blocks, merge_s, compose_s =
    if optimized then
      profile_stage "blocks" (fun () ->
          build_optimized t config ~groups_by_spec ~run)
    else begin
      let t0 = Unix.gettimeofday () in
      let c = build_naive t config in
      let dt = Unix.gettimeofday () -. t0 in
      (c, [ (Unattributed, Classifier.rule_count c) ], 0., dt)
    end
  in
  register_arp t config;
  let elapsed = Unix.gettimeofday () -. t0 in
  t.classifier <- classifier;
  t.blocks_ <- blocks;
  let shards = t.shards_ in
  let sum f = List.fold_left (fun n s -> n + f s) 0 shards in
  let sum_f f = List.fold_left (fun x s -> x +. f s) 0. shards in
  let main_fdd = Fdd.stats main_shard.fdd in
  let stats =
    {
      group_count = List.length groups_;
      rule_count = Classifier.rule_count classifier;
      elapsed_s = elapsed;
      compose_s;
      reachability_s;
      group_s;
      seq_ops = sum (fun s -> s.seq_ops);
      memo_hits = sum (fun s -> s.memo_hits);
      fdd_build_s = sum_f (fun s -> s.build_s);
      fdd_merge_s = merge_s;
      fdd_extract_s = sum_f (fun s -> s.extract_s);
      fdd_nodes = main_fdd.Fdd.nodes;
      fdd_memo_hits = sum (fun s -> (Fdd.stats s.fdd).Fdd.memo_hits);
      fdd_table_size = main_fdd.Fdd.unique_table_size;
    }
  in
  t.stats_ <- stats;
  Sdx_obs.Registry.Counter.incr Obs.compiles;
  Sdx_obs.Registry.Histogram.observe Obs.compile_seconds elapsed;
  Sdx_obs.Registry.Gauge.set_int Obs.rules stats.rule_count;
  Sdx_obs.Registry.Gauge.set_int Obs.groups stats.group_count;
  Sdx_obs.Registry.Counter.add Obs.seq_ops stats.seq_ops;
  Sdx_obs.Registry.Counter.add Obs.memo_hits stats.memo_hits;
  Sdx_obs.Registry.Gauge.set_int Obs.fdd_nodes stats.fdd_nodes;
  Sdx_obs.Registry.Counter.add Obs.fdd_memo_hits stats.fdd_memo_hits;
  Sdx_obs.Registry.Gauge.set_int Obs.fdd_table_size stats.fdd_table_size;
  Sdx_obs.Trace.record ~name:"compile" ~start_s:t0 ~dur_s:elapsed
    ~attrs:
      [
        ("rules", string_of_int stats.rule_count);
        ("groups", string_of_int stats.group_count);
        ("mode", if optimized then "optimized" else "naive");
        ("ir", match ir with `Fdd -> "fdd" | `Crossproduct -> "crossproduct");
      ]
    ();
  t

(* The pre-FDD composition pipeline, kept verbatim as the correctness
   oracle: same blocks, same job structure, but every composition is a
   classifier cross-product. *)
let compile_crossproduct ?optimized ?memoize ?grouping ?domains config vnh_alloc
    =
  compile ?optimized ?memoize ~ir:`Crossproduct ?grouping ?domains config
    vnh_alloc

let estimate_with_group_cost t cost_of_group =
  let cost_of_vmac = Hashtbl.create 64 in
  List.iter
    (fun g -> Hashtbl.replace cost_of_vmac g.vmac (cost_of_group g))
    t.groups_;
  List.fold_left
    (fun n (r : Classifier.rule) ->
      match r.pattern.Pattern.dst_mac with
      | Some m -> (
          match Hashtbl.find_opt cost_of_vmac m with
          | Some cost -> n + cost
          | None -> n + 1)
      | None -> n + 1)
    0 t.classifier

let unaggregated_rule_estimate t =
  estimate_with_group_cost t (fun g -> List.length g.prefixes)

let aggregated_rule_estimate t =
  estimate_with_group_cost t (fun g -> List.length (Aggregate.minimize g.prefixes))

let in_switch_tagging_table t config =
  let keys = Default_keys.create config in
  let server = Config.server config in
  let tag_rule ?port prefix mac =
    {
      Classifier.pattern = Pattern.make ?port ~dst_ip:prefix ();
      action = [ Mods.make ~dst_mac:mac () ];
    }
  in
  let rules_for prefix =
    match Hashtbl.find_opt t.by_prefix prefix with
    | Some g -> [ tag_rule prefix g.vmac ]
    | None -> (
        (* Ungrouped prefixes carry the chosen next hop's real MAC; when
           senders disagree, minority variants are pinned to their
           in-ports under one unpinned majority rule, as in the default
           layer. *)
        let resolvable =
          List.filter_map
            (fun (nh_opt, receivers) ->
              match nh_opt with
              | Some nh -> (
                  match Config.port_of_next_hop config nh with
                  | Some (_, port, _) -> Some (port.Participant.mac, receivers)
                  | None -> None)
              | None -> None)
            (Default_keys.variants_of_prefix keys prefix)
        in
        match
          List.sort
            (fun (_, r1) (_, r2) -> Int.compare (List.length r2) (List.length r1))
            resolvable
        with
        | [] -> []
        | (majority_mac, _) :: minorities ->
            List.concat_map
              (fun (mac, receivers) ->
                List.concat_map
                  (fun asn ->
                    List.map
                      (fun port -> tag_rule ~port prefix mac)
                      (Config.switch_ports_of config asn))
                  receivers)
              minorities
            @ [ tag_rule prefix majority_mac ])
  in
  let tagged = List.concat_map rules_for (Route_server.all_prefixes server) in
  (* Longest prefix first, so overlapping announcements resolve like a
     router's LPM lookup; untagged traffic passes through unchanged. *)
  let by_specificity =
    List.stable_sort
      (fun (a : Classifier.rule) (b : Classifier.rule) ->
        match (a.pattern.Pattern.dst_ip, b.pattern.Pattern.dst_ip) with
        | Some pa, Some pb -> Int.compare (Prefix.length pb) (Prefix.length pa)
        | _ -> 0)
      tagged
  in
  by_specificity @ [ { Classifier.pattern = Pattern.all; action = [ Mods.identity ] } ]

let announcement t config ~receiver prefix =
  match Route_server.best (Config.server config) ~receiver prefix with
  | None -> None
  | Some route -> (
      match group_of_prefix t prefix with
      | Some g -> Some (Route.with_next_hop g.vnh route)
      | None -> Some route)

let fold_announcements t config ~receiver f init =
  Route_server.fold_best (Config.server config) ~receiver
    (fun prefix route acc ->
      let route =
        match group_of_prefix t prefix with
        | Some g -> Route.with_next_hop g.vnh route
        | None -> route
      in
      f prefix route acc)
    init

(* ------------------------------------------------------------------ *)
(* Incremental fast path (§4.3.2).                                     *)

type batch_delta = {
  batch_rules : Classifier.t;
  batch_groups : group list;
  batch_provenance : (provenance * int) list;
  batch_retired : int;
  batch_migrated : int;
  batch_touched_groups : int list;
  batch_elapsed_s : float;
}

(* A prefix's class key against the live Loc-RIBs.  The via-band ids
   are the clauses covering the prefix, under the predicate the
   export-vector pass evaluates at compile time (destination
   restriction, export policy, loop prevention, route filter), so a
   route that became reachable through a diversion target since the last
   build diverts exactly as a fresh compile would, and a withdrawn one
   stops diverting.  The origin-band ids take the [nspecs + j] slots the
   export-vector pass assigns ([originated_sets] iterates the static
   participant config, so the indexing is stable), and [spec_id] is
   collection-ordered, so the list ascends like a fresh compile's.  The
   key reads only the prefix's own routes and the static config. *)
let class_key_fn t config keys =
  let server = Config.server config in
  let membership prefix =
    List.filter_map
      (fun spec ->
        match spec.via with
        | None -> None
        | Some via ->
            let allowed =
              match spec.restriction with
              | None -> true
              | Some allowed -> List.exists (Prefix.overlaps prefix) allowed
            in
            if
              allowed
              && Route_server.exports_to server ~advertiser:via
                   ~receiver:spec.sender.asn
              && (match Route_server.route_from server ~via prefix with
                 | Some r ->
                     Route_server.loop_free r ~receiver:spec.sender.asn
                     && Route_server.route_filter_passes server r
                          ~receiver:spec.sender.asn
                 | None -> false)
            then Some spec.spec_id
            else None)
      t.ospecs
  in
  let nspecs = Array.length t.ospec_arr in
  let origin_sets = originated_sets config in
  let origin_band prefix =
    let rec go j = function
      | [] -> []
      | (_, set) :: rest ->
          if Prefix.Set.mem prefix set then (nspecs + j) :: go (j + 1) rest
          else go (j + 1) rest
    in
    go 0 origin_sets
  in
  fun prefix ->
    ( membership prefix @ origin_band prefix,
      Default_keys.fingerprint keys prefix )

let remove_member (g : group) p =
  g.prefixes <- List.filter (fun q -> not (Prefix.equal q p)) g.prefixes

(* Forgets a class that lost its last member: its key, its stored blocks
   and its delivery-port memo.  Its VNH and ARP binding are the
   caller's to release. *)
let forget_class t (g : group) =
  (match Hashtbl.find_opt t.class_keys g.id with
  | Some ((ids, _) as key) ->
      Class_tbl.remove t.class_intern key;
      Hashtbl.remove t.class_keys g.id;
      List.iter
        (fun i ->
          if i < Array.length t.ospec_arr then begin
            Hashtbl.remove t.block_store (Via_block (i, g.id));
            Option.iter
              (fun via -> Hashtbl.remove t.main_shard.delivery (via, g.id))
              t.ospec_arr.(i).via
          end)
        ids
  | None -> ());
  Hashtbl.remove t.block_store (Default_block g.id)

(* Burst-batched fast path: one [Default_keys] instance and one pass
   over the route-server state serve the whole burst.  Duplicate
   prefixes are coalesced (only the final route state matters within a
   burst), and prefixes with the same clause membership and default
   fingerprint share one fresh VNH instead of burning one each.  A
   prefix whose signature is already interned — from the base compile or
   an earlier burst — migrates into the existing class: a [by_prefix]
   rebind and two membership splices, no VNH draw and no new rules (the
   class's VMAC-matched rules are signature-determined, so they already
   forward the migrated prefix's traffic correctly).

   The function is transactional with respect to the compiler state:
   classification is pure, and every VNH the batch needs is reserved
   before the first mutation, so an exhausted pool surfaces as
   [Error `Vnh_exhausted] with [t], the ARP responder, and the allocator
   all unchanged — the runtime then rolls forward into a full recompile
   instead of running with a half-installed burst. *)
let compile_update_batch t config vnh_alloc prefixes =
  let t0 = Unix.gettimeofday () in
  let server = Config.server config in
  (* The instance is created after the burst's updates were applied, so
     its memoized fingerprints reflect the post-update routes. *)
  let keys = Default_keys.create config in
  let seen = Hashtbl.create 16 in
  let prefixes =
    List.filter
      (fun p ->
        if Hashtbl.mem seen p then false
        else begin
          Hashtbl.add seen p ();
          true
        end)
      prefixes
  in
  (* A prefix with no remaining candidate route (and no SDX originator)
     needs no group at all: it gets unbound below so its old VNH can
     retire, instead of burning a fresh VNH on an empty rule slice —
     withdraw storms used to drain the pool exactly that way. *)
  let alive, dead =
    List.partition
      (fun p ->
        Route_server.ranked server p <> []
        || originator_of config p <> None)
      prefixes
  in
  let key_of = class_key_fn t config keys in
  (* Pure classification: split the burst into signature hits (rebinds
     into live classes) and fresh classes (which need VNHs).  Nothing is
     mutated until the whole burst is known to fit the VNH pool. *)
  let migrations = ref [] in
  let unchanged = ref 0 in
  let sig_tbl = Class_tbl.create 16 in
  let order = ref [] in
  List.iter
    (fun prefix ->
      let s = key_of prefix in
      match Class_tbl.find_opt t.class_intern s with
      | Some g -> (
          match Hashtbl.find_opt t.by_prefix prefix with
          | Some g0 when g0.id = g.id ->
              (* Routes changed in ways the signature doesn't see (e.g.
                 an AS-path edit preserving preference order, loop
                 checks, and next hops): the owner's rules are still
                 exactly right. *)
              incr unchanged
          | _ -> migrations := (prefix, g) :: !migrations)
      | None -> (
          match Class_tbl.find_opt sig_tbl s with
          | Some members -> members := prefix :: !members
          | None ->
              let members = ref [ prefix ] in
              Class_tbl.replace sig_tbl s members;
              order := (s, members) :: !order))
    alive;
  let migrations = List.rev !migrations in
  let wanted = List.rev !order in
  (* Reserve every VNH up front; nothing has been mutated yet, so on
     exhaustion the reservations go straight back and the caller sees a
     clean failure.  Migrations reuse their class's VNH and need no
     reservation — which is why a churn pattern revisiting known classes
     stops draining the pool at all. *)
  let reserve n =
    let rec go acc n =
      if n = 0 then Ok (List.rev acc)
      else
        match Vnh.alloc vnh_alloc with
        | `Fresh p -> go (p :: acc) (n - 1)
        | `Exhausted ->
            List.iter (fun (ip, _) -> ignore (Vnh.release vnh_alloc ip)) acc;
            Error `Vnh_exhausted
    in
    go [] n
  in
  match reserve (List.length wanted) with
  | Error `Vnh_exhausted ->
      Sdx_obs.Registry.Counter.incr Obs.batch_exhausted;
      Error `Vnh_exhausted
  | Ok reserved ->
  (* From here on the batch cannot fail: mutate the bindings, then build
     the rule block.  Record the previous owner groups first so the ones
     this burst fully supersedes can retire. *)
  let prior = Hashtbl.create 16 in
  List.iter
    (fun p ->
      match Hashtbl.find_opt t.by_prefix p with
      | Some g -> Hashtbl.replace prior g.id g
      | None -> ())
    (alive @ dead);
  (* Membership lists stay truthful under churn: every prefix leaving a
     class is spliced out of its [prefixes] (and merged, sorted, into
     the target's on migration), so the checker and the build-time views
     read live membership, not a snapshot. *)
  let unbind p =
    match Hashtbl.find_opt t.by_prefix p with
    | Some g0 -> remove_member g0 p
    | None -> ()
  in
  List.iter
    (fun p ->
      unbind p;
      Hashtbl.remove t.by_prefix p)
    dead;
  List.iter
    (fun (p, (g : group)) ->
      unbind p;
      g.prefixes <- List.merge Prefix.compare [ p ] g.prefixes;
      Hashtbl.replace t.by_prefix p g)
    migrations;
  let groups =
    List.map2
      (fun (s, members) (vnh, vmac) ->
        let key_id = Default_keys.key_of_prefix keys (List.hd !members) in
        let g =
          {
            id = t.next_group_id;
            vnh;
            vmac;
            prefixes = List.sort Prefix.compare !members;
            default_variants = Default_keys.variants keys key_id;
          }
        in
        t.next_group_id <- t.next_group_id + 1;
        t.batch_groups_ <- g :: t.batch_groups_;
        Class_tbl.replace t.class_intern s g;
        Hashtbl.replace t.class_keys g.id s;
        List.iter
          (fun p ->
            unbind p;
            Hashtbl.replace t.by_prefix p g)
          g.prefixes;
        Sdx_arp.Responder.register t.arp_ vnh vmac;
        g)
      wanted reserved
  in
  (* Retire previously-minted fast-path groups this burst left with no
     bound prefix: their rules (in older, lower-priority blocks) are
     shadowed by the new block, so the VNH goes back on the free-list
     and the ARP responder stops answering for it.  Base-compile groups
     keep their allocation until the next re-optimization drops them. *)
  let fastpath_ids = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace fastpath_ids g.id ()) t.batch_groups_;
  let retired =
    Hashtbl.fold
      (fun id g acc ->
        if Hashtbl.mem fastpath_ids id && g.prefixes = [] then g :: acc
        else acc)
      prior []
  in
  List.iter
    (fun (g : group) ->
      Sdx_arp.Responder.unregister t.arp_ g.vnh;
      ignore (Vnh.release vnh_alloc g.vnh);
      (* A retired class must also leave the canonical table: its VNH is
         back on the free-list, so interning into it later would bind
         prefixes to an unregistered VMAC. *)
      forget_class t g)
    retired;
  (match retired with
  | [] -> ()
  | _ ->
      let retired_ids = Hashtbl.create 8 in
      List.iter (fun (g : group) -> Hashtbl.replace retired_ids g.id ()) retired;
      t.batch_groups_ <-
        List.filter (fun g -> not (Hashtbl.mem retired_ids g.id)) t.batch_groups_;
      t.retired_groups_ <- retired @ t.retired_groups_;
      Sdx_obs.Registry.Counter.add Obs.vnhs_retired (List.length retired);
      Sdx_obs.Registry.Gauge.set_int Obs.retired_tombstones
        (List.length t.retired_groups_));
  (* The group's membership was just computed against the live Loc-RIBs
     (export policy, loop prevention, and route filter — the same
     predicate the base compiler applies), so every listed clause is
     known to divert every member: a withdrawal immediately stops a
     diversion and a new announcement immediately starts one, exactly as
     a from-scratch recompile would (§5.2's "data plane stays in sync
     with BGP"). *)
  (* The fast path runs on the coordinating domain and always composes
     in [t.main_shard]: its pipeline caches (classifier and FDD alike)
     persist across bursts, which is what keeps per-burst latency flat.
     It must not consult the DLS slot — a later compile's epoch would
     have evicted this run's shard.  Each block is stored as the class's
     own, for the rebuild to lay out again. *)
  let blocks =
    List.concat_map
      (fun g ->
        let ids, _ = Hashtbl.find t.class_keys g.id in
        (* origin-band ids name no via-clause: nothing to build. *)
        List.filter_map
          (fun i ->
            if i < Array.length t.ospec_arr then Some (Via_slot (t.ospec_arr.(i), g))
            else None)
          ids
        @ [ Default_slot g ])
      groups
    |> List.map (fun s ->
           let rules = fst (compose_slot t t.main_shard config s) in
           Hashtbl.replace t.block_store (slot_key s) rules;
           (slot_provenance s, rules))
  in
  let rules = List.concat_map snd blocks in
  let elapsed = Unix.gettimeofday () -. t0 in
  Sdx_obs.Registry.Counter.incr Obs.batches;
  Sdx_obs.Registry.Histogram.observe Obs.batch_seconds elapsed;
  Sdx_obs.Registry.Counter.add Obs.batch_rules (Classifier.rule_count rules);
  Sdx_obs.Registry.Counter.add Obs.batch_prefixes (List.length prefixes);
  Sdx_obs.Registry.Counter.add Obs.batch_vnhs (List.length groups);
  Sdx_obs.Registry.Counter.add Obs.batch_migrations (List.length migrations);
  Sdx_obs.Trace.record ~name:"compile_update_batch" ~start_s:t0 ~dur_s:elapsed
    ~attrs:
      [
        ("prefixes", string_of_int (List.length prefixes));
        ("groups", string_of_int (List.length groups));
        ("migrated", string_of_int (List.length migrations));
        ("unchanged", string_of_int !unchanged);
        ("rules", string_of_int (Classifier.rule_count rules));
      ]
    ();
  Ok
    {
      batch_rules = rules;
      batch_groups = groups;
      batch_provenance = List.map (fun (p, rs) -> (p, List.length rs)) blocks;
      batch_retired = List.length retired;
      batch_migrated = List.length migrations;
      batch_touched_groups =
        (* Every provenance group whose obligations this burst may have
           changed: the freshly minted ones, each migration's target
           (its membership grew), plus each prefix's previous owner
           (whose rules the new block now shadows or retires). *)
        List.map (fun g -> g.id) groups
        @ List.map (fun (_, (g : group)) -> g.id) migrations
        @ Hashtbl.fold (fun id _ acc -> id :: acc) prior [];
      batch_elapsed_s = elapsed;
    }

(* Tombstone compaction: keep only the retired groups some installed
   block's provenance still names.  The runtime calls this after every
   burst install with the live id set from its provenance table, so the
   tombstone list is bounded by the installed blocks instead of growing
   with total churn. *)
let compact_retired t ~live =
  let keep = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace keep id ()) live;
  let before = List.length t.retired_groups_ in
  t.retired_groups_ <-
    List.filter (fun (g : group) -> Hashtbl.mem keep g.id) t.retired_groups_;
  let after = List.length t.retired_groups_ in
  Sdx_obs.Registry.Gauge.set_int Obs.retired_tombstones after;
  before - after

(* ------------------------------------------------------------------ *)
(* The rebuild: re-optimization from the fast path's own state.        *)

(* Whether a [Default] clause's rewritten destination lies in one of
   [prefixes]: only then can their routes change what [resolve_default]
   returns. *)
let covers_rewrite prefixes addr = List.exists (Prefix.mem addr) prefixes

let rewrites_into t prefixes =
  List.exists (fun (_, addr) -> covers_rewrite prefixes addr) t.default_rewrites

(* The participants whose inbound pipeline a default block of [g] runs
   through. *)
let default_owners config g =
  let originator = originator_of config (List.hd g.prefixes) in
  List.filter_map
    (fun (nh_opt, _) ->
      match nh_opt with
      | Some nh ->
          Option.map
            (fun ((owner : Participant.t), _, _) -> owner.asn)
            (Config.port_of_next_hop config nh)
      | None -> Option.map (fun (o : Participant.t) -> o.asn) originator)
    g.default_variants

(* Drops every cached composition built on a [stale] participant's
   inbound pipeline, from the shared extraction caches and from the
   coordinating shard the fast path composes in. *)
let forget_pipelines t stale =
  let keep_owner (owner, _) v = if stale owner then None else Some v in
  Pipeline_cache.filter_map_inplace keep_owner t.main_shard.fdd_pipelines;
  Pipeline_cache.filter_map_inplace keep_owner t.main_shard.cls_pipelines;
  Hashtbl.filter_map_inplace keep_owner t.shared_pipes;
  Hashtbl.filter_map_inplace
    (fun (spec_id, _) v ->
      match t.ospec_arr.(spec_id).via with
      | Some via when stale via -> None
      | _ -> Some v)
    t.shared_bodies

(* Two prefixes with equal class keys get equal blocks (up to the
   class's VMAC): the sender blocks read the clause, the via's inbound
   pipeline and the via's next hop for the class (an entry of the
   fingerprint); the default block reads the variants (a function of
   the fingerprint) and the first originator (of the origin band).  The
   one exception is [resolve_default], which looks a [Default] clause's
   rewritten address up in a Loc-RIB: every block built on such a
   pipeline, and every direct clause of that kind, is recomposed when a
   touched prefix covers the address.  Every other live block is laid
   out as stored. *)
let rebuild t config vnh_alloc ~touched =
  if not t.rebuildable then
    invalid_arg "Compile.rebuild: needs an optimized, interned compile";
  let t0 = Unix.gettimeofday () in
  let shard = t.main_shard in
  let seq0 = shard.seq_ops
  and memo0 = shard.memo_hits
  and build0 = shard.build_s
  and extract0 = shard.extract_s
  and fdd_memo0 = (Fdd.stats shard.fdd).Fdd.memo_hits in
  let keys = Default_keys.create config in
  let key_of = class_key_fn t config keys in
  let touched = List.sort_uniq Prefix.compare touched in
  let rekeyed = List.map (fun p -> (p, key_of p)) touched in
  let t_group = Unix.gettimeofday () in
  (* Move each re-keyed prefix to the live class holding its key; a
     prefix whose export vector is empty leaves every class, as a fresh
     compile never groups it; the rest wait for a fresh class. *)
  let fresh = Class_tbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (p, ((ids, _) as key)) ->
      let old = Hashtbl.find_opt t.by_prefix p in
      let target = if ids = [] then None else Class_tbl.find_opt t.class_intern key in
      match (old, target) with
      | Some g0, Some g when g0.id = g.id -> ()
      | _ -> (
          Option.iter
            (fun g0 ->
              remove_member g0 p;
              Hashtbl.remove t.by_prefix p)
            old;
          match target with
          | Some g ->
              g.prefixes <- List.merge Prefix.compare [ p ] g.prefixes;
              Hashtbl.replace t.by_prefix p g
          | None when ids = [] -> ()
          | None -> (
              match Class_tbl.find_opt fresh key with
              | Some members -> members := p :: !members
              | None ->
                  let members = ref [ p ] in
                  Class_tbl.replace fresh key members;
                  order := (key, members) :: !order)))
    rekeyed;
  (* Drop the classes left without members, then hand the pool every VNH
     no survivor holds (tombstones' and any other stray allocation
     included), so the survivors keep theirs and live VNHs equal
     classes. *)
  let kept, dropped =
    List.partition
      (fun g -> g.prefixes <> [])
      (t.groups_ @ List.rev t.batch_groups_)
  in
  List.iter
    (fun g ->
      Sdx_arp.Responder.unregister t.arp_ g.vnh;
      forget_class t g)
    dropped;
  Vnh.retain vnh_alloc (List.map (fun g -> g.vnh) kept);
  let by_smallest_member a b = Prefix.compare (List.hd a.prefixes) (List.hd b.prefixes) in
  let minted =
    List.map
      (fun (key, members) ->
        let vnh, vmac = Vnh.fresh vnh_alloc in
        let g =
          {
            id = t.next_group_id;
            vnh;
            vmac;
            prefixes = members;
            default_variants =
              Default_keys.variants keys
                (Default_keys.key_of_prefix keys (List.hd members));
          }
        in
        t.next_group_id <- t.next_group_id + 1;
        Class_tbl.replace t.class_intern key g;
        Hashtbl.replace t.class_keys g.id key;
        List.iter (fun p -> Hashtbl.replace t.by_prefix p g) members;
        Sdx_arp.Responder.register t.arp_ vnh vmac;
        g)
      (List.sort
         (fun (_, a) (_, b) -> Prefix.compare (List.hd a) (List.hd b))
         (List.map
            (fun (key, members) -> (key, List.sort Prefix.compare !members))
            !order))
  in
  let groups = List.sort by_smallest_member (kept @ minted) in
  let compose_t0 = Unix.gettimeofday () in
  let group_s = compose_t0 -. t_group in
  let rewritten addr = covers_rewrite touched addr in
  let stale_owners =
    List.filter_map
      (fun (owner, addr) -> if rewritten addr then owner else None)
      t.default_rewrites
  in
  let stale owner = List.exists (Asn.equal owner) stale_owners in
  if stale_owners <> [] then forget_pipelines t stale;
  let is_stale = function
    | Direct_slot spec ->
        Option.fold ~none:false ~some:rewritten (default_rewrite spec.clause)
    | _ when stale_owners = [] -> false
    | Via_slot (spec, _) -> stale (Option.get spec.via)
    | Default_slot g -> List.exists stale (default_owners config g)
    | Untagged_slot p -> stale p.asn
  in
  let composed = ref 0 in
  let blocks =
    List.map
      (fun s ->
        let key = slot_key s in
        match Hashtbl.find_opt t.block_store key with
        | Some rules when not (is_stale s) -> (s, rules)
        | _ ->
            incr composed;
            let rules = fst (compose_slot t shard config s) in
            Hashtbl.replace t.block_store key rules;
            (s, rules))
      (slots t config ~groups ~groups_by_spec:(covering_groups t groups))
  in
  let compose_s = Unix.gettimeofday () -. compose_t0 in
  let classifier = List.concat_map snd blocks @ drop_all_rule in
  t.classifier <- classifier;
  t.blocks_ <-
    List.map (fun (s, rules) -> (slot_provenance s, List.length rules)) blocks
    @ [ (Catch_all, List.length drop_all_rule) ];
  t.groups_ <- groups;
  t.batch_groups_ <- [];
  t.retired_groups_ <- [];
  t.shards_ <- [ shard ];
  let elapsed = Unix.gettimeofday () -. t0 in
  let fdd = Fdd.stats shard.fdd in
  let stats =
    {
      group_count = List.length groups;
      rule_count = Classifier.rule_count classifier;
      elapsed_s = elapsed;
      compose_s;
      reachability_s = t_group -. t0;
      group_s;
      seq_ops = shard.seq_ops - seq0;
      memo_hits = shard.memo_hits - memo0;
      fdd_build_s = shard.build_s -. build0;
      fdd_merge_s = 0.;
      fdd_extract_s = shard.extract_s -. extract0;
      fdd_nodes = fdd.Fdd.nodes;
      fdd_memo_hits = fdd.Fdd.memo_hits - fdd_memo0;
      fdd_table_size = fdd.Fdd.unique_table_size;
    }
  in
  t.stats_ <- stats;
  Sdx_obs.Registry.Gauge.set_int Obs.rules stats.rule_count;
  Sdx_obs.Registry.Gauge.set_int Obs.groups stats.group_count;
  Sdx_obs.Registry.Gauge.set_int Obs.retired_tombstones 0;
  Sdx_obs.Trace.record ~name:"rebuild" ~start_s:t0 ~dur_s:elapsed
    ~attrs:
      [
        ("rekeyed", string_of_int (List.length touched));
        ("minted", string_of_int (List.length minted));
        ("dropped", string_of_int (List.length dropped));
        ("composed", string_of_int !composed);
        ("rules", string_of_int stats.rule_count);
      ]
    ();
  stats
