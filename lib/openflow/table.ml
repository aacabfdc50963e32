open Sdx_net
open Sdx_policy
module Sync = Sdx_sanitize.Sync

(* sdx-owner: packets is bumped by the owning (writer) domain's lookup
   path only; snapshot lookups are pure and never touch it.  [found] is
   [Some flow], built once so that a hit returns it without
   allocating. *)
type entry = { flow : Flow.t; found : Flow.t option; seq : int; mutable packets : int }

let make_entry flow seq = { flow; found = Some flow; seq; packets = 0 }

exception Table_full

(* Entries are ordered by descending priority, then ascending insertion
   sequence; [lookup] must return the minimum matching entry under this
   order, whichever layer it lives in. *)
let order a b =
  match Int.compare b.flow.Flow.priority a.flow.Flow.priority with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

(* ------------------------------------------------------------------ *)
(* The layered match engine.

   A linear scan over the flow list is what the paper's §4.2 is fighting
   on the hardware side; on our software data plane it made every replay
   experiment measure list traversal.  The engine partitions entries
   into four layers at install time:

   - dst_mac: every pattern that pins the destination MAC, whatever
     else it pins.  §4.2 tags each frame with a virtual MAC so the
     fabric forwards on it, and nearly every SDX rule (VMAC rules, the
     fabric's transit tags) pins one; a hash from that MAC to one
     priority-sorted bucket decides such a rule with a single probe.
   - exact: patterns with no MAC pin whose every constraint is a
     discrete exact field (in_port, src MAC, ethertype, proto, L4
     ports).  Grouped by shape (the set of pinned fields, a la
     tuple-space search); each shape owns a hashtable from a packet-key
     hash to a small priority-sorted bucket.
   - prefix: patterns with no MAC pin that prefix-match an IP.  Two
     Prefix_tries of priority-sorted buckets, one keyed on the dst_ip
     prefix (also hosting rules that constrain both IPs) and one on the
     src_ip prefix (for rules with no dst_ip pin, e.g. inbound TE); a
     lookup walks the <= 33 nodes covering the packet's address in each.
   - residual: everything else — in practice only the wildcard
     drop/flood catch-alls, a priority-sorted list scanned linearly.

   Hash keys are not injective, and every bucket's entries may pin
   fields beyond its key, so every candidate is re-verified with
   [Pattern.matches] before it competes: collisions cost time, never
   correctness.  Each layer yields its first matching entry (minimal
   under [order] within the layer); the global winner is the [order]-
   minimum of the candidates, which is exactly the entry the linear
   scan would have found first. *)

(* sdx-owner: engine internals (buckets, shapes, tries, residual) are
   private to the owning domain; cross-domain readers only ever see them
   through a frozen snapshot. *)
type bucket = { mutable items : entry list (* sorted by [order] *) }

(* sdx-owner: see [bucket] — owning domain only. *)
type shape = {
  mask : int;  (* Pattern.Fields bitmask this shape's patterns pin *)
  tbl : (int, bucket) Hashtbl.t;  (* packet-key hash -> bucket *)
  mutable population : int;
}

module Mac_tbl = Hashtbl.Make (struct
  type t = Mac.t

  let equal = Mac.equal

  (* VMACs and trunk tags differ in their low bits, participant MACs
     anywhere: fold the high bits down before the table masks. *)
  let hash m =
    let x = Mac.to_int m * 0x9E3779B97F4A7C1 in
    x lxor (x lsr 29)
end)

(* sdx-owner: see [bucket] — owning domain only. *)
type engine = {
  macs : bucket Mac_tbl.t;  (* dst MAC -> bucket *)
  mutable mac_entries : int;
  mutable shapes : shape list;
  mutable dst_trie : bucket Prefix_trie.t;
  mutable src_trie : bucket Prefix_trie.t;
  mutable residual : entry list;  (* sorted by [order] *)
  mutable residual_len : int;
}

(* An empty engine whose MAC hash is sized for [n] entries, so a bulk
   build never rehashes. *)
let new_engine n =
  {
    macs = Mac_tbl.create (max 16 n);
    mac_entries = 0;
    shapes = [];
    dst_trie = Prefix_trie.empty;
    src_trie = Prefix_trie.empty;
    residual = [];
    residual_len = 0;
  }

type layer =
  | Mac_keyed of Mac.t
  | Exact of int
  | Dst_prefixed of Prefix.t
  | Src_prefixed of Prefix.t
  | Residual

let classify (p : Pattern.t) =
  match (p.Pattern.dst_mac, p.Pattern.dst_ip, p.Pattern.src_ip) with
  | Some mac, _, _ -> Mac_keyed mac
  | None, Some pre, _ -> Dst_prefixed pre
  | None, None, Some pre -> Src_prefixed pre
  | None, None, None ->
      let m = Pattern.pinned_mask p in
      if m = 0 then Residual else Exact m

(* ------------------------------------------------------------------ *)

module Key = struct
  type t = int * Pattern.t

  let equal (pa, a) (pb, b) = pa = pb && Pattern.equal a b
  let hash (p, pat) = (p * 0x01000193) lxor Pattern.hash pat
end

module KeyTbl = Hashtbl.Make (Key)

(* Sentinel for the lookup scratch slot; compared with [==] only and
   never mutated, so sharing one across tables is safe. *)
let no_entry =
  {
    flow = Flow.make ~priority:0 ~pattern:Pattern.all ~actions:[];
    found = None;
    seq = max_int;
    packets = 0;
  }

let dummy_packet = Packet.make ()

(* Layer tags, indexing [Obs.layer_hits]. *)
let layer_mac = 0
let layer_exact = 1
let layer_prefix = 2
let layer_residual = 3
let layer_miss = 4

(* A lookup cursor: the scratch slots one probe writes its candidate
   into, so the hot loop threads no options or tuples through the
   layers.  sdx-owner: the one domain that probes with it — the table's
   writer domain for [lookup], the reader that built a [searcher]. *)
type cursor = {
  mutable best : entry;
  mutable best_layer : int;
  mutable probe_pkt : Packet.t;  (* the packet [visit] scans buckets for *)
  mutable visit : bucket -> unit;  (* trie visitor, built once per cursor *)
}

(* Buckets and the residual band are sorted, so the first match is the
   layer's best candidate and the scan stops there; it also stops at
   the first entry the current best already beats, since every later
   entry is worse still. *)
let rec scan c pkt layer = function
  | [] -> ()
  | e :: rest ->
      if c.best != no_entry && order e c.best > 0 then ()
      else if Pattern.matches e.flow.Flow.pattern pkt then begin
        c.best <- e;
        c.best_layer <- layer
      end
      else scan c pkt layer rest

let cursor () =
  let c =
    { best = no_entry; best_layer = layer_miss; probe_pkt = dummy_packet; visit = ignore }
  in
  c.visit <- (fun b -> scan c c.probe_pkt layer_prefix b.items);
  c

let rec probe_shapes c pkt = function
  | [] -> ()
  | s :: rest ->
      (match Hashtbl.find s.tbl (Pattern.packet_key s.mask pkt) with
      | b -> scan c pkt layer_exact b.items
      | exception Not_found -> ());
      probe_shapes c pkt rest

(* The one probe routine behind [lookup] and [searcher]: leaves the
   first matching entry (or [no_entry]) and its layer in [c].  The
   destination-MAC bucket goes first, so on SDX tables the other layers
   mostly stop at their first entry. *)
let probe eng c (pkt : Packet.t) =
  c.best <- no_entry;
  c.best_layer <- layer_miss;
  (match Mac_tbl.find eng.macs pkt.Packet.dst_mac with
  | b -> scan c pkt layer_mac b.items
  | exception Not_found -> ());
  probe_shapes c pkt eng.shapes;
  (* Storing a young packet in [probe_pkt] files the field in the minor
     GC's remembered set, so skip the stores when there is no trie to
     walk. *)
  if not (Prefix_trie.is_empty eng.dst_trie && Prefix_trie.is_empty eng.src_trie) then begin
    c.probe_pkt <- pkt;
    Prefix_trie.iter_matches pkt.Packet.dst_ip c.visit eng.dst_trie;
    Prefix_trie.iter_matches pkt.Packet.src_ip c.visit eng.src_trie;
    c.probe_pkt <- dummy_packet
  end;
  scan c pkt layer_residual eng.residual

(* A read-copy-update view of the table: an engine plus a sorted entry
   array, built once by the owning domain and never mutated afterwards.
   Readers on any domain may probe [snap_engine] concurrently — the hash
   tables, tries and buckets inside are frozen, so there is no resize,
   no rebalancing, and nothing to lock.  The only mutable state a
   snapshot shares with the live table is [entry.packets], which
   snapshot lookups deliberately never touch (counters stay owned by the
   writer domain). *)
type snapshot = {
  snap_engine : engine;
  snap_entries : entry array;  (* sorted by [order]; the frozen oracle *)
  snap_seq : int;  (* table's next_seq at build time, for diagnostics *)
}

type t = {
  by_key : entry KeyTbl.t;  (* (priority, pattern) -> live entry *)
  (* sdx-owner: every mutable field below belongs to the single writer
     domain, a contract asserted at runtime via [owner]; [snap] is the
     one cross-domain cell and goes through Sync.Atomic. *)
  mutable count : int;
  mutable next_seq : int;
  capacity : int option;
  mutable engine : engine;
  mutable stale : int;  (* incremental engine ops since last build *)
  mutable rebuilds : int;
  mutable sorted : entry list;  (* cache; meaningful iff sorted_valid *)
  mutable sorted_valid : bool;
  cursor : cursor;  (* the live lookup's scratch *)
  mutable lookups : int;
  (* Published RCU snapshot: [None] after any mutation, lazily rebuilt
     by [snapshot].  Single writer (the owning domain), many readers. *)
  snap : snapshot option Sync.Atomic.t;
  (* Single-writer contract, checked under SDX_RACE=1: the first thread
     to mutate the table (or build a snapshot) owns it for the detector
     session; any other thread doing so is reported. *)
  owner : Sync.Owner.t;
  snapshots_tr : Sync.Tracked.t;
  mutable snapshots : int;
}

module Obs = struct
  open Sdx_obs.Registry

  let flow_mods = counter "sdx_openflow_flow_mods_total"
  let installs = counter "sdx_openflow_installs_total"
  let removes = counter "sdx_openflow_removes_total"

  (* Aggregate occupancy across every live table (the runtime usually
     drives one per fabric switch), maintained by deltas on each
     mutation. *)
  let entries = gauge "sdx_openflow_table_entries"

  let mutate ~installed ~removed =
    Counter.add flow_mods (installed + removed);
    Counter.add installs installed;
    Counter.add removes removed;
    Gauge.add entries (float_of_int (installed - removed))

  let rebuilds = counter "sdx_openflow_engine_rebuilds_total"
  let snapshot_builds = counter "sdx_openflow_snapshot_builds_total"

  (* Per-layer hit attribution, indexed by the layer tags above; "miss"
     rides in the same family so dashboards can stack to 100%. *)
  let layer_hits =
    Array.map
      (fun l -> counter ~labels:[ ("layer", l) ] "sdx_openflow_lookup_layer_hits_total")
      [| "dst_mac"; "exact"; "prefix"; "residual"; "miss" |]

  (* Sampled 1-in-64: a clock read per packet would cost more than the
     lookup it measures. *)
  let lookup_seconds = histogram "sdx_openflow_lookup_seconds"
end

(* ------------------------------------------------------------------ *)
(* Engine maintenance                                                  *)

let bucket_insert b e = b.items <- List.merge order [ e ] b.items
let bucket_remove b e = b.items <- List.filter (fun x -> x != e) b.items

let shape_for eng mask =
  match List.find_opt (fun s -> s.mask = mask) eng.shapes with
  | Some s -> s
  | None ->
      let s = { mask; tbl = Hashtbl.create 64; population = 0 } in
      eng.shapes <- s :: eng.shapes;
      s

let trie_insert trie pre e =
  match Prefix_trie.find_opt pre trie with
  | Some b ->
      bucket_insert b e;
      trie
  | None -> Prefix_trie.add pre { items = [ e ] } trie

let trie_remove trie pre e =
  match Prefix_trie.find_opt pre trie with
  | Some b ->
      bucket_remove b e;
      if b.items = [] then Prefix_trie.remove pre trie else trie
  | None -> trie

let engine_insert t e =
  let eng = t.engine in
  (match classify e.flow.Flow.pattern with
  | Mac_keyed mac ->
      (match Mac_tbl.find_opt eng.macs mac with
      | Some b -> bucket_insert b e
      | None -> Mac_tbl.add eng.macs mac { items = [ e ] });
      eng.mac_entries <- eng.mac_entries + 1
  | Exact mask ->
      let s = shape_for eng mask in
      let k = Pattern.pinned_key e.flow.Flow.pattern in
      (match Hashtbl.find_opt s.tbl k with
      | Some b -> bucket_insert b e
      | None -> Hashtbl.add s.tbl k { items = [ e ] });
      s.population <- s.population + 1
  | Dst_prefixed pre -> eng.dst_trie <- trie_insert eng.dst_trie pre e
  | Src_prefixed pre -> eng.src_trie <- trie_insert eng.src_trie pre e
  | Residual ->
      eng.residual <- List.merge order [ e ] eng.residual;
      eng.residual_len <- eng.residual_len + 1);
  t.stale <- t.stale + 1

let engine_remove t e =
  let eng = t.engine in
  (match classify e.flow.Flow.pattern with
  | Mac_keyed mac -> (
      eng.mac_entries <- eng.mac_entries - 1;
      match Mac_tbl.find_opt eng.macs mac with
      | Some b ->
          bucket_remove b e;
          if b.items = [] then Mac_tbl.remove eng.macs mac
      | None -> ())
  | Exact mask -> (
      let s = shape_for eng mask in
      let k = Pattern.pinned_key e.flow.Flow.pattern in
      s.population <- s.population - 1;
      match Hashtbl.find_opt s.tbl k with
      | Some b ->
          bucket_remove b e;
          if b.items = [] then Hashtbl.remove s.tbl k
      | None -> ())
  | Dst_prefixed pre -> eng.dst_trie <- trie_remove eng.dst_trie pre e
  | Src_prefixed pre -> eng.src_trie <- trie_remove eng.src_trie pre e
  | Residual ->
      eng.residual <- List.filter (fun x -> x != e) eng.residual;
      eng.residual_len <- eng.residual_len - 1);
  t.stale <- t.stale + 1

let sorted_entries t =
  if not t.sorted_valid then begin
    t.sorted <- List.sort order (KeyTbl.fold (fun _ e acc -> e :: acc) t.by_key []);
    t.sorted_valid <- true
  end;
  t.sorted

(* Partition a reverse-sorted entry list into [eng]'s layers.  Entries
   are consed in reverse sorted order so every bucket and the residual
   band come out sorted with O(1) work per entry.  Shared by the
   in-place [rebuild] and the RCU [snapshot] builder. *)
let partition_rev eng rev_sorted =
  let trie_prepend trie pre e =
    match Prefix_trie.find_opt pre trie with
    | Some b ->
        b.items <- e :: b.items;
        trie
    | None -> Prefix_trie.add pre { items = [ e ] } trie
  in
  List.iter
    (fun e ->
      match classify e.flow.Flow.pattern with
      | Mac_keyed mac ->
          (match Mac_tbl.find_opt eng.macs mac with
          | Some b -> b.items <- e :: b.items
          | None -> Mac_tbl.add eng.macs mac { items = [ e ] });
          eng.mac_entries <- eng.mac_entries + 1
      | Exact mask ->
          let s = shape_for eng mask in
          let k = Pattern.pinned_key e.flow.Flow.pattern in
          (match Hashtbl.find_opt s.tbl k with
          | Some b -> b.items <- e :: b.items
          | None -> Hashtbl.add s.tbl k { items = [ e ] });
          s.population <- s.population + 1
      | Dst_prefixed pre -> eng.dst_trie <- trie_prepend eng.dst_trie pre e
      | Src_prefixed pre -> eng.src_trie <- trie_prepend eng.src_trie pre e
      | Residual ->
          eng.residual <- e :: eng.residual;
          eng.residual_len <- eng.residual_len + 1)
    rev_sorted

(* Full re-partition from the live entry set. *)
let rebuild t =
  t.engine <- new_engine t.count;
  partition_rev t.engine (List.rev (sorted_entries t));
  t.stale <- 0;
  t.rebuilds <- t.rebuilds + 1;
  Sdx_obs.Registry.Counter.incr Obs.rebuilds

(* Any mutation retires the published snapshot; readers holding the old
   one keep a consistent (pre-mutation) view until they re-[snapshot].
   Unconditional exchange: the previous get-then-set pair was benign
   only by grace of the single-writer discipline, and encoding that
   discipline as an [Owner] assertion (checked under SDX_RACE=1) is both
   cheaper and honest — a second concurrent writer now gets reported
   instead of silently racing the check-then-act window. *)
let invalidate_snapshot t =
  Sync.Owner.assert_owner t.owner;
  ignore (Sync.Atomic.exchange t.snap None)

(* In-place insertion/removal keeps the engine exact, but leaves empty
   hash buckets, dead trie nodes, and oversized shape tables behind;
   past this churn budget a full re-partition re-compacts everything. *)
let staleness_limit t = 64 + (2 * t.count)
let maybe_rebuild t = if t.stale > staleness_limit t then rebuild t

(* ------------------------------------------------------------------ *)

let create ?capacity () =
  {
    by_key = KeyTbl.create 256;
    count = 0;
    next_seq = 0;
    capacity;
    engine = new_engine 0;
    stale = 0;
    rebuilds = 0;
    sorted = [];
    sorted_valid = true;
    cursor = cursor ();
    lookups = 0;
    snap = Sync.Atomic.make ~name:"Table.snap" None;
    owner = Sync.Owner.create "Table.writer";
    snapshots_tr = Sync.Tracked.create "Table.snapshots";
    snapshots = 0;
  }

(* OpenFlow ADD semantics: an entry with the same priority and match
   overwrites the existing one (counters reset). *)
let install t (flow : Flow.t) =
  let key = (flow.Flow.priority, flow.Flow.pattern) in
  let existing = KeyTbl.find_opt t.by_key key in
  (match (t.capacity, existing) with
  | Some cap, None when t.count >= cap -> raise Table_full
  | _ -> ());
  let removed =
    match existing with
    | Some old ->
        engine_remove t old;
        t.count <- t.count - 1;
        1
    | None -> 0
  in
  let e = make_entry flow t.next_seq in
  t.next_seq <- t.next_seq + 1;
  KeyTbl.replace t.by_key key e;
  t.count <- t.count + 1;
  t.sorted_valid <- false;
  invalidate_snapshot t;
  engine_insert t e;
  maybe_rebuild t;
  Obs.mutate ~installed:1 ~removed

let remove t ~priority ~pattern =
  match KeyTbl.find_opt t.by_key (priority, pattern) with
  | None -> Obs.mutate ~installed:0 ~removed:0
  | Some e ->
      KeyTbl.remove t.by_key (priority, pattern);
      t.count <- t.count - 1;
      t.sorted_valid <- false;
      invalidate_snapshot t;
      engine_remove t e;
      maybe_rebuild t;
      Obs.mutate ~installed:0 ~removed:1

type op = Install of Flow.t | Remove of (int * Pattern.t)

(* One-pass batch: update the entry map op by op (preserving per-flow
   capacity/overwrite semantics), then sort-and-build the engine once.
   The [finally] keeps the engine consistent even when a capacity
   overflow aborts the batch midway. *)
let rebuild_after t ops =
  let installed = ref 0 and removed = ref 0 in
  let drop key =
    if KeyTbl.mem t.by_key key then begin
      KeyTbl.remove t.by_key key;
      t.count <- t.count - 1;
      incr removed;
      true
    end
    else false
  in
  Fun.protect
    ~finally:(fun () ->
      t.sorted_valid <- false;
      invalidate_snapshot t;
      rebuild t;
      Obs.mutate ~installed:!installed ~removed:!removed)
    (fun () ->
      List.iter
        (function
          | Remove key -> ignore (drop key)
          | Install flow ->
              let key = (flow.Flow.priority, flow.Flow.pattern) in
              (if not (drop key) then
                 match t.capacity with
                 | Some cap when t.count >= cap -> raise Table_full
                 | _ -> ());
              KeyTbl.replace t.by_key key (make_entry flow t.next_seq);
              t.next_seq <- t.next_seq + 1;
              t.count <- t.count + 1;
              incr installed)
        ops)

let install_all t flows = rebuild_after t (List.map (fun f -> Install f) flows)

(* A batch within the staleness budget keeps per-entry engine
   maintenance; a bigger one would cross the budget and re-partition
   anyway, so it only touches the entry map and rebuilds once. *)
let apply t ops =
  if List.compare_length_with ops (staleness_limit t) <= 0 then
    List.iter
      (function
        | Install flow -> install t flow
        | Remove (priority, pattern) -> remove t ~priority ~pattern)
      ops
  else rebuild_after t ops

let clear t =
  Obs.mutate ~installed:0 ~removed:t.count;
  KeyTbl.reset t.by_key;
  t.count <- 0;
  t.sorted <- [];
  t.sorted_valid <- true;
  invalidate_snapshot t;
  t.engine <- new_engine 0;
  t.stale <- 0

let remove_where t pred =
  let victims =
    KeyTbl.fold (fun k e acc -> if pred e.flow then (k, e) :: acc else acc) t.by_key []
  in
  let n = List.length victims in
  if n > 0 then begin
    List.iter (fun (k, _) -> KeyTbl.remove t.by_key k) victims;
    t.count <- t.count - n;
    t.sorted_valid <- false;
    invalidate_snapshot t;
    rebuild t
  end;
  Obs.mutate ~installed:0 ~removed:n;
  n

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)

let lookup_engine t pkt =
  let c = t.cursor in
  probe t.engine c pkt;
  let e = c.best in
  Sdx_obs.Registry.Counter.incr Obs.layer_hits.(c.best_layer);
  if e == no_entry then None
  else begin
    e.packets <- e.packets + 1;
    c.best <- no_entry;
    e.found
  end

let lookup t pkt =
  t.lookups <- t.lookups + 1;
  if t.lookups land 63 = 0 then begin
    let t0 = Unix.gettimeofday () in
    let r = lookup_engine t pkt in
    Sdx_obs.Registry.Histogram.observe Obs.lookup_seconds (Unix.gettimeofday () -. t0);
    r
  end
  else lookup_engine t pkt

(* Reference path: the pre-engine linear scan over the sorted entry
   list.  Pure (no counters, no metrics) so tests and the dataplane
   bench can use it as an oracle without disturbing state. *)
let lookup_linear t pkt =
  let rec go = function
    | [] -> None
    | e :: rest -> if Pattern.matches e.flow.Flow.pattern pkt then e.found else go rest
  in
  go (sorted_entries t)

(* ------------------------------------------------------------------ *)
(* RCU snapshots                                                       *)

(* Build (or return the published) immutable view.  Single-writer
   discipline: only the domain that mutates the table may call this;
   the returned snapshot may then be probed from any domain. *)
let published_snapshot t = Sync.Atomic.get t.snap

(* Partition [sorted] (in [order], [count] entries) into a fresh engine
   and freeze it with its entry array. *)
let freeze sorted ~count ~seq =
  let eng = new_engine count in
  partition_rev eng (List.rev sorted);
  { snap_engine = eng; snap_entries = Array.of_list sorted; snap_seq = seq }

let snapshot t =
  match Sync.Atomic.get t.snap with
  | Some s -> s
  | None ->
      Sync.Owner.assert_owner t.owner;
      let s = freeze (sorted_entries t) ~count:t.count ~seq:t.next_seq in
      Sync.Tracked.write t.snapshots_tr;
      t.snapshots <- t.snapshots + 1;
      Sdx_obs.Registry.Counter.incr Obs.snapshot_builds;
      Sync.Atomic.set t.snap (Some s);
      s

(* What [install_all] on a fresh table and then [snapshot] would
   publish, with no table behind it: a later flow with an earlier one's
   (priority, match) replaces it, and no metric moves. *)
let snapshot_of_flows flows =
  let by_key = KeyTbl.create 256 in
  List.iteri
    (fun seq (f : Flow.t) ->
      KeyTbl.replace by_key (f.priority, f.pattern) (make_entry f seq))
    flows;
  let sorted = List.sort order (KeyTbl.fold (fun _ e acc -> e :: acc) by_key []) in
  freeze sorted ~count:(KeyTbl.length by_key) ~seq:(List.length flows)

let snapshot_size s = Array.length s.snap_entries
let snapshot_seq s = s.snap_seq

(* A lookup function over a frozen snapshot with a private cursor, so
   each domain can own one and probe the shared engine without touching
   any shared mutable state.  Pure: no packet counters, no metrics —
   the writer domain owns those. *)
let searcher snap =
  let eng = snap.snap_engine and c = cursor () in
  fun pkt ->
    probe eng c pkt;
    let e = c.best in
    if e == no_entry then None else e.found

(* Linear oracle over the frozen entry array: agrees with what [searcher]
   answers for THIS snapshot even while the live table keeps mutating,
   which makes concurrent equivalence checks exact. *)
let snapshot_linear snap pkt =
  let entries = snap.snap_entries in
  let n = Array.length entries in
  let rec go i =
    if i >= n then None
    else
      let e = Array.unsafe_get entries i in
      if Pattern.matches e.flow.Flow.pattern pkt then e.found else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)

let size t = t.count
let capacity t = t.capacity
let entries t = List.map (fun e -> e.flow) (sorted_entries t)

let hits t ~priority ~pattern =
  match KeyTbl.find_opt t.by_key (priority, pattern) with
  | Some e -> e.packets
  | None -> 0

type engine_stats = {
  mac_entries : int;
  mac_keys : int;
  mac_largest_bucket : int;
  exact_shapes : int;
  exact_entries : int;
  prefix_entries : int;
  residual_entries : int;
  rebuilds : int;
  snapshots : int;
}

let engine_stats t =
  let eng = t.engine in
  let bucket_len b = List.length b.items in
  {
    mac_entries = eng.mac_entries;
    mac_keys = Mac_tbl.length eng.macs;
    mac_largest_bucket = Mac_tbl.fold (fun _ b m -> max m (bucket_len b)) eng.macs 0;
    exact_shapes = List.length eng.shapes;
    exact_entries = List.fold_left (fun acc s -> acc + s.population) 0 eng.shapes;
    prefix_entries =
      Prefix_trie.fold (fun _ b acc -> acc + bucket_len b) eng.dst_trie 0
      + Prefix_trie.fold (fun _ b acc -> acc + bucket_len b) eng.src_trie 0;
    residual_entries = eng.residual_len;
    rebuilds = t.rebuilds;
    snapshots = t.snapshots;
  }

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Flow.pp)
    (entries t)
