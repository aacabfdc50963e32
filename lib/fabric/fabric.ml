open Sdx_net
open Sdx_policy
open Sdx_openflow

(* A sharded fabric: one software switch + OpenFlow connection per
   topology switch, driven through a two-phase consistent update
   (Reitblatt et al., "Abstractions for Network Update") so that no
   packet is ever processed by a mix of old and new rules.

   Each logical rule is split into:

   - an *ingress* copy, installed at its home edge (port-pinned rules)
     or at every edge (port-unpinned rules), with remote outputs
     rewritten to trunk ports and their frames re-addressed into the
     {!Vtag} space;
   - a *transit* copy of every port-unpinned dst-MAC rule whose MAC some
     trunk frame is stamped for, in a priority band far above the
     ingress band, matching the tagged address and forwarding toward
     (or delivering at) the destination's home switch.

   The transit copies of one stamped destination MAC form its *slice*.
   A slice sits only on its *reach*: the switches a frame tagged for
   its MAC can arrive at, the first hops of the ingress copies that
   stamp it, closed over the slice copies that forward or re-stamp
   frames onward.  Each slice carries its own version parity in its
   tags.  A commit flips only the slices that are new or whose rules (as
   {!Runtime.flows} emits them) or reach changed, closed over slices
   whose copies re-stamp toward a flipped MAC:

   1. install the flipped (and new) slices' copies at their new parity
      on their new reach, cookie-tagged by that tag (make-before-break:
      inert until something stamps the new parity); barrier every
      connection;
   2. add, overwrite or delete the ingress rules that are new, changed
      or gone, or that stamp a flipped MAC; barrier;
   3. delete the flipped and departed slices' old-parity copies with one
      [delete_cookie] each on their old reach; barrier.

   In-flight frames carrying an old parity still match that parity's
   copies until phase 3, and phase 3 only starts after phase 2's
   barriers prove no edge stamps it anymore.  The closure is what keeps
   a packet on one version: an unflipped slice only ever re-stamps
   toward unflipped slices, whose rules and reach read the same in both
   rulesets.  An unchanged ruleset sends no flow-mod at all. *)

let transit_base = 16_000_000
(* The transit bands sit above every ingress priority (the runtime's
   bands top out at its fast-path ceiling, 65,000, or at the base
   classifier's rule count if that is larger: 76,927 at the 500x50k
   headline); both parities share the offset because their patterns are
   disjoint in the tag octet. *)

let g_mixed = Sdx_obs.Registry.counter "sdx_fabric_mixed_version_packets_total"
let g_transit_miss = Sdx_obs.Registry.counter "sdx_fabric_transit_misses_total"
let g_commits = Sdx_obs.Registry.counter "sdx_fabric_commits_total"

type member = { id : int; switch : Switch.t; table : Table.t; connection : Connection.t }

type commit_stats = {
  version : int;  (** the version the commit moved the fabric to *)
  install_mods : int;  (** phase-1 adds: flipped slices at their new parity *)
  flip_mods : int;  (** phase-2 mods: ingress adds, overwrites, deletes *)
  gc_mods : int;  (** phase-3 deletes: flipped slices' old-parity copies *)
  barriers : int;  (** barrier round-trips across all switches *)
}

let total_mods s = s.install_mods + s.flip_mods + s.gc_mods

type phase =
  | Installed of int  (** new slice copies on their reach, old rules live *)
  | Flipped of int  (** every edge now stamps the new parities *)
  | Collected of int  (** the superseded slice copies deleted *)
  | Synced_member of int
      (** [`Unsafe_single_phase] only: one switch cut over, others not *)

(* Per-walk state of {!process}'s consistency monitor: whether the walk
   met an anomaly or a transit miss, the first trunk destination seen
   (its tag index, and the parities seen for it as bits), any others in
   [more], and whether one of those showed both parities. *)
type monitor = {
  mutable anomaly : bool;
  mutable missed : bool;
  mutable dest : int;
  mutable bits : int;
  mutable more : (int * int) list;
  mutable mixed : bool;
}

(* The packet walk's callbacks, shared by the counting and the pure
   readers and built once per fabric or reader: [probe] maps (switch id,
   packet) to the matching flow entry, and the [on_*] hooks feed the
   monitor. *)
type walker = {
  w_topo : Topology.t;
  max_hops : int;
  probe : int -> Packet.t -> Flow.t option;
  on_anomaly : unit -> unit;
  on_miss : unit -> unit;
  on_trunk_tag : int -> int -> unit;  (* tag index, parity *)
}

(* A stamped MAC's slice: its port-unpinned dst-MAC rules in emission
   order, its reach as switch bits (see [bit_of]), and its parity. *)
type slice = { rules : Flow.t list; reach : int; parity : int }

module Macs = Hashtbl.Make (Mac)

type t = {
  topo : Topology.t;
  members : member list;  (* ascending switch id *)
  by_id : member option array;  (* switch id -> member *)
  tags : Vtag.t;
  trunked : bool;  (* false for the degenerate single-switch layout *)
  ids : int array;  (* switch ids, ascending *)
  bits : int array;  (* switch id -> its reach bit *)
  slot : int array;  (* switch id -> its index in [ids] *)
  edge_bits : int;  (* the switches hosting physical ports *)
  (* The next switch on the tree path from one switch toward another
     (slot * switch count + slot), memoized: -1 until first read. *)
  hops : int array;
  (* The last committed ruleset, the baseline of the next diff: logical
     flows by (priority, pattern), and the slices. *)
  mutable committed : Flow.t Table.KeyTbl.t;
  mutable slices : slice Macs.t;
  mutable version : int;
  mutable commits : int;
  mutable next_xid : int;
  mutable last_commit : commit_stats option;
  mutable packets : int;
  mutable mixed_version_packets : int;
  mutable transit_misses : int;
  monitor : monitor;
  walker : walker;
}

let walker topo ~probe ~on_anomaly ~on_miss ~on_trunk_tag =
  { w_topo = topo; max_hops = 4 * Topology.switch_count topo; probe; on_anomaly; on_miss; on_trunk_tag }

(* An array indexed by switch id, [absent] where there is no switch. *)
let by_switch topo absent cells =
  let a = Array.make (List.fold_left max 0 (Topology.switches topo) + 1) absent in
  List.iter (fun (s, x) -> a.(s) <- x) cells;
  a

(* Record that the walk sent a frame toward tag index [dest] with
   [parity]; a destination seen with both parities met a mixed ruleset.
   The first destination lives in two ints, so a walk toward a single
   destination allocates nothing here. *)
let note_tag mon dest parity =
  let bit = 1 lsl parity in
  if mon.dest < 0 || mon.dest = dest then begin
    mon.dest <- dest;
    mon.bits <- mon.bits lor bit
  end
  else if List.exists (fun (d, b) -> d = dest && b <> bit) mon.more then mon.mixed <- true
  else mon.more <- (dest, bit) :: mon.more

(* A switch's reach bit.  Past [Sys.int_size - 1] switches bits repeat,
   so a reach can only name a superset of its switches: copies on a few
   switches no frame visits, never a switch without its copy. *)
let bit_of i = 1 lsl (i mod (Sys.int_size - 1))

let create ?capacity topo =
  let members =
    List.map
      (fun id ->
        let switch = Switch.create ?capacity () in
        { id; switch; table = Switch.table switch 0; connection = Connection.create switch })
      (Topology.switches topo)
  in
  let by_id = by_switch topo None (List.map (fun m -> (m.id, Some m)) members) in
  let ids = Array.of_list (Topology.switches topo) in
  let n = Array.length ids in
  let bits = by_switch topo 0 (List.mapi (fun i s -> (s, bit_of i)) (Array.to_list ids)) in
  let monitor =
    { anomaly = false; missed = false; dest = -1; bits = 0; more = []; mixed = false }
  in
  let probe s pkt =
    match by_id.(s) with Some m -> Table.lookup m.table pkt | None -> None
  in
  {
    topo;
    members;
    by_id;
    tags = Vtag.create ();
    trunked = Topology.spanning_tree_edges topo <> [];
    ids;
    bits;
    slot = by_switch topo (-1) (List.mapi (fun i s -> (s, i)) (Array.to_list ids));
    edge_bits =
      List.fold_left (fun acc s -> acc lor bits.(s)) 0 (Topology.edge_switches topo);
    hops = Array.make (n * n) (-1);
    committed = Table.KeyTbl.create 16;
    slices = Macs.create 16;
    version = 0;
    commits = 0;
    next_xid = 1;
    last_commit = None;
    packets = 0;
    mixed_version_packets = 0;
    transit_misses = 0;
    monitor;
    walker =
      walker topo ~probe
        ~on_anomaly:(fun () -> monitor.anomaly <- true)
        ~on_miss:(fun () -> monitor.missed <- true)
        ~on_trunk_tag:(note_tag monitor);
  }

let topo t = t.topo
let switches t = List.map (fun m -> m.id) t.members

let member_opt t s = if s >= 0 && s < Array.length t.by_id then t.by_id.(s) else None

let switch t s =
  match member_opt t s with
  | Some m -> m.switch
  | None -> invalid_arg (Printf.sprintf "Fabric.switch: unknown switch %d" s)

let connection t s =
  match member_opt t s with
  | Some m -> m.connection
  | None -> invalid_arg (Printf.sprintf "Fabric.connection: unknown switch %d" s)

let version t = t.version
let commits t = t.commits
let last_commit t = t.last_commit
let packets t = t.packets
let mixed_version_packets t = t.mixed_version_packets
let transit_misses t = t.transit_misses

let untag t mac = Vtag.strip t.tags mac

let rule_counts t = List.map (fun m -> (m.id, Table.size m.table)) t.members

let total_rules t = List.fold_left (fun n (_, c) -> n + c) 0 (rule_counts t)

(* ------------------------------------------------------------------ *)
(* Splitting the logical flow list per switch *)

let blackhole = Sdx_core.Compile.blackhole_port

(* The address a trunk frame must be re-addressed toward: the mod's own
   rewrite if it has one, else the rule's pinned destination. *)
let trunk_target (pattern : Pattern.t) (m : Mods.t) =
  match m.Mods.dst_mac with
  | Some mac -> mac
  | None -> (
      match pattern.Pattern.dst_mac with
      | Some mac -> mac
      | None ->
          invalid_arg
            "Fabric: trunk-crossing action names no destination MAC to tag")

(* The switch a non-blackhole output port lives on, if it still exists. *)
let home_of t (m : Mods.t) =
  match m.Mods.port with
  | Some p when p <> blackhole -> Topology.home_of_port t.topo p
  | _ -> None

(* The tag a frame toward [mac] carries: its slice's committed parity
   (0 for an address with no slice). *)
let tag t mac =
  Vtag.stamp t.tags
    ~version:(match Macs.find_opt t.slices mac with Some sl -> sl.parity | None -> 0)
    mac

(* The next switch on the tree path from [s] toward [h] ([s] itself when
   it is [h]), memoized. *)
let next t s h =
  let i = (t.slot.(s) * Array.length t.ids) + t.slot.(h) in
  let hop = t.hops.(i) in
  if hop >= 0 then hop
  else
    let hop = Option.value (Topology.next_hop t.topo ~from:s ~toward:h) ~default:s in
    t.hops.(i) <- hop;
    hop

(* Rewrite one action atom for switch [s]: local ports stay; remote
   ports leave on the trunk toward their home, with the frame stamped
   with its destination's tag. *)
let localize_mod t s (pattern : Pattern.t) (m : Mods.t) =
  match home_of t m with
  | None -> m (* no output, the blackhole, or a port that no longer exists *)
  | Some home when home = s -> m
  | Some home ->
      {
        m with
        port = Some (Topology.trunk_port t.topo ~from:s ~toward_neighbor:(next t s home));
        dst_mac = Some (tag t (trunk_target pattern m));
      }

let check_priority (f : Flow.t) =
  if f.Flow.priority >= transit_base then
    invalid_arg
      (Printf.sprintf "Fabric: flow priority %d collides with the transit band"
         f.Flow.priority)

(* Ingress band: port-pinned rules at their home switch, port-unpinned
   rules at every switch hosting physical ports. *)
let ingress_at t s (f : Flow.t) =
  match f.pattern.Pattern.port with
  | Some p -> Topology.home_of_port t.topo p = Some s
  | None -> Topology.has_physical_ports t.topo s

let ingress_copy t s (f : Flow.t) =
  { f with actions = List.map (localize_mod t s f.pattern) f.actions }

(* Whether [f]'s ingress copy at [s] stamps a MAC in [flipped]. *)
let stamps t flipped s (f : Flow.t) =
  List.exists
    (fun m ->
      match home_of t m with
      | Some home when home <> s -> Macs.mem flipped (trunk_target f.pattern m)
      | _ -> false)
    f.actions

(* The MAC whose slice a logical rule joins if that MAC is stamped:
   port-unpinned dst-MAC rules. *)
let slice_of (f : Flow.t) =
  match (f.Flow.pattern.Pattern.port, f.Flow.pattern.Pattern.dst_mac) with
  | None, Some mac -> Some mac
  | _ -> None

(* Restore the destination address on atoms that leave it untouched, so
   delivered frames never leak a tag and trunk frames re-stamp toward
   the right slice. *)
let restore mac (m : Mods.t) =
  if m.Mods.dst_mac = None then { m with dst_mac = Some mac } else m

(* Slice [mac]'s copies at switch [s]: each rule matching the tagged
   address at [transit_base + priority], delivering locally or
   re-stamping onto the next trunk. *)
let slice_copies t s mac rules =
  let pattern_tag = tag t mac in
  List.map
    (fun (f : Flow.t) ->
      {
        Flow.priority = transit_base + f.priority;
        pattern = { f.pattern with dst_mac = Some pattern_tag };
        actions = List.map (fun m -> localize_mod t s f.pattern (restore mac m)) f.actions;
      })
    rules

(* ------------------------------------------------------------------ *)
(* Reach *)

(* The bit of the next hop from switch [s] toward switch [h]; 0 when
   [s] is [h]. *)
let step t s h = if s = h then 0 else t.bits.(next t s h)

(* The bits of the next hops toward [h] from the switches in [reach]. *)
let onward t reach h =
  let acc = ref 0 in
  for i = 0 to Array.length t.ids - 1 do
    let s = t.ids.(i) in
    if t.bits.(s) land reach <> 0 then acc := !acc lor step t s h
  done;
  !acc

(* The switches [f]'s ingress copies sit on, as bits. *)
let ingress_bits t (f : Flow.t) =
  match f.pattern.Pattern.port with
  | None -> t.edge_bits
  | Some p -> ( match Topology.home_of_port t.topo p with Some s -> t.bits.(s) | None -> 0)

(* [k target bits] for each trunk frame [f]'s copies on the switches in
   [from] send: the MAC it is stamped for and the switches it goes to
   next. *)
let iter_stamps t from (f : Flow.t) k =
  List.iter
    (fun m ->
      match home_of t m with
      | None -> ()
      | Some h ->
          let bits = onward t from h in
          if bits <> 0 then k (trunk_target f.pattern m) bits)
    f.actions

(* What a commit gathers about one destination MAC: its port-unpinned
   dst-MAC rules (newest first until [index] reverses them) and the
   switches frames tagged for it arrive at. *)
type dest = { mutable fs : Flow.t list; mutable reach : int }

let dest dests mac =
  match Macs.find_opt dests mac with
  | Some d -> d
  | None ->
      let d = { fs = []; reach = 0 } in
      Macs.add dests mac d;
      d

(* Close the reach seeded by the ingress copies over the slice copies: a
   frame arriving tagged for a MAC at a switch in its reach leaves by
   that MAC's rules, stamped for their trunk targets. *)
let close_reach t dests =
  let work = Queue.create () in
  Macs.iter (fun mac d -> if d.fs <> [] && d.reach <> 0 then Queue.push (mac, d) work) dests;
  while not (Queue.is_empty work) do
    let mac, d = Queue.pop work in
    List.iter
      (fun f ->
        iter_stamps t d.reach f (fun target bits ->
            let d' = if Mac.equal target mac then d else dest dests target in
            if d'.reach lor bits <> d'.reach then begin
              d'.reach <- d'.reach lor bits;
              if d'.fs <> [] then Queue.push (target, d') work
            end))
      d.fs
  done

(* ------------------------------------------------------------------ *)
(* Two-phase commit *)

let barrier_all t =
  List.iter
    (fun m ->
      let xid = t.next_xid in
      t.next_xid <- xid + 1;
      if not (Connection.barrier m.connection xid) then
        failwith
          (Printf.sprintf "Fabric: switch %d left barrier %d unanswered" m.id
             xid))
    t.members;
  List.length t.members

(* What a commit sends one member, phase by phase. *)
type sends = {
  member : member;
  installs : Message.t list;
  ingress : Message.t list;
  collects : Message.t list;
}

let plan_is_empty = List.for_all (fun p -> p.installs = [] && p.ingress = [] && p.collects = [])

(* The new ruleset by slot (last occurrence wins, as sequential ADDs
   would), whether some slot occurs twice, and the stamped MACs in order
   of first emission with their rules (in emission order) and reach. *)
let index t flows =
  let n = List.length flows in
  let by_key = Table.KeyTbl.create (max 16 n) in
  let dests = Macs.create (if t.trunked then max 16 n else 1) in
  let order = ref [] in
  List.iter
    (fun (f : Flow.t) ->
      check_priority f;
      Table.KeyTbl.replace by_key (f.priority, f.pattern) f;
      if t.trunked then begin
        (match slice_of f with
        | Some mac ->
            let d = dest dests mac in
            if d.fs = [] then order := (mac, d) :: !order;
            d.fs <- f :: d.fs
        | None -> ());
        iter_stamps t (ingress_bits t f) f (fun target bits ->
            let d = dest dests target in
            d.reach <- d.reach lor bits)
      end)
    flows;
  if t.trunked then begin
    List.iter (fun (_, d) -> d.fs <- List.rev d.fs) !order;
    close_reach t dests
  end;
  ( by_key,
    Table.KeyTbl.length by_key < n,
    List.filter (fun (_, d) -> d.reach <> 0) (List.rev !order) )

(* Slices that are new or whose rules or reach changed, closed over the
   slices whose copies re-stamp toward a flipped MAC. *)
let flipped_slices t order =
  let flipped = Macs.create 16 and dependents = Macs.create 16 in
  let work = Queue.create () in
  let flip mac =
    if not (Macs.mem flipped mac) then begin
      Macs.replace flipped mac ();
      Queue.push mac work
    end
  in
  let same (a : Flow.t) b = a == b || a = b in
  List.iter
    (fun (mac, d) ->
      (match Macs.find_opt t.slices mac with
      | Some old when old.reach = d.reach && List.equal same old.rules d.fs -> ()
      | _ -> flip mac);
      List.iter
        (fun f ->
          iter_stamps t d.reach f (fun target _ ->
              if not (Mac.equal target mac) then Macs.add dependents target mac))
        d.fs)
    order;
  while not (Queue.is_empty work) do
    List.iter flip (Macs.find_all dependents (Queue.pop work))
  done;
  flipped

(* Diff [flows] against the committed ruleset.  Nothing is sent and the
   fabric's bookkeeping (committed flows and slices) moves to the new
   ruleset only once the whole plan is built, so a ruleset rejected with
   [Invalid_argument] leaves the fabric as it was. *)
let plan t flows =
  let by_key, shadowed, order = index t flows in
  let flipped = flipped_slices t order in
  let old_slices = t.slices in
  let slices = Macs.create (max 16 (List.length order)) in
  let flips =
    List.filter_map
      (fun (mac, d) ->
        let flip = Macs.mem flipped mac in
        let parity =
          match Macs.find_opt old_slices mac with
          | Some old when flip -> 1 - old.parity
          | Some old -> old.parity
          | None -> 0
        in
        let sl = { rules = d.fs; reach = d.reach; parity } in
        Macs.replace slices mac sl;
        if flip then Some (mac, sl) else None)
      order
  in
  (* Old-parity copies to collect, with the reach they sit on: those of
     slices that left, and of flipped slices that had some. *)
  let collects =
    Macs.fold
      (fun mac (old : slice) acc ->
        if Macs.mem slices mac && not (Macs.mem flipped mac) then acc
        else
          let cookie = Mac.to_int (Vtag.stamp t.tags ~version:old.parity mac) in
          (old.reach, Message.delete_cookie cookie) :: acc)
      old_slices []
  in
  (* The ingress diff: the last occurrence of each slot that is new or
     changed ([true]), or unchanged but possibly stamping a flipped MAC
     ([false]); newest first.  [kept] counts the committed slots the new
     ruleset still has. *)
  let kept = ref 0 in
  let candidates =
    List.fold_left
      (fun acc (f : Flow.t) ->
        let key = (f.priority, f.pattern) in
        if shadowed && Table.KeyTbl.find by_key key != f then acc
        else
          match Table.KeyTbl.find_opt t.committed key with
          | Some old ->
              incr kept;
              if old == f || old = f then if flips = [] then acc else (f, false) :: acc
              else (f, true) :: acc
          | None -> (f, true) :: acc)
      [] flows
  in
  let gone =
    if !kept = Table.KeyTbl.length t.committed then []
    else
      Table.KeyTbl.fold
        (fun key f acc -> if Table.KeyTbl.mem by_key key then acc else f :: acc)
        t.committed []
  in
  (* Copies and stamps below read the new parities. *)
  t.slices <- slices;
  match
    List.map
      (fun member ->
        let s = member.id and here = t.bits.(member.id) in
        let installs =
          List.concat_map
            (fun (mac, (sl : slice)) ->
              if sl.reach land here = 0 then []
              else
                let cookie = Mac.to_int (tag t mac) in
                List.map (Message.add ~cookie) (slice_copies t s mac sl.rules))
            flips
        in
        let ingress =
          List.fold_left
            (fun acc (f, changed) ->
              if ingress_at t s f && (changed || stamps t flipped s f) then
                Message.add (ingress_copy t s f) :: acc
              else acc)
            [] candidates
          @ List.filter_map
              (fun f -> if ingress_at t s f then Some (Message.delete f) else None)
              gone
        in
        let collects =
          List.filter_map
            (fun (reach, msg) -> if reach land here <> 0 then Some msg else None)
            collects
        in
        { member; installs; ingress; collects })
      t.members
  with
  | sends ->
      t.committed <- by_key;
      sends
  | exception e ->
      t.slices <- old_slices;
      raise e

(* Hand one switch its messages as one batch; the flow-mods it applied. *)
let send m msgs =
  let before = Connection.flow_mods_applied m.connection in
  Connection.send_all m.connection msgs;
  Connection.flow_mods_applied m.connection - before

let sum f l = List.fold_left (fun n x -> n + f x) 0 l

let commit ?(protocol = `Two_phase) ?(on_phase = fun (_ : phase) -> ()) t flows
    =
  let sends = plan t flows in
  let v = if plan_is_empty sends then t.version else t.version + 1 in
  let stats =
    match protocol with
    | `Two_phase ->
        (* Phase 1: make-before-break.  New-parity copies are inert
           until an ingress rule stamps that parity. *)
        let install_mods = sum (fun p -> send p.member p.installs) sends in
        let b1 = barrier_all t in
        on_phase (Installed v);
        (* Phase 2: flip the edges.  Rules that only change their stamps
           keep their (priority, pattern), so they overwrite in place. *)
        let flip_mods = sum (fun p -> send p.member p.ingress) sends in
        let b2 = barrier_all t in
        on_phase (Flipped v);
        (* Phase 3: no edge stamps an old parity anymore (the phase-2
           barriers proved it), so the old-parity copies are garbage. *)
        let gc_mods = sum (fun p -> send p.member p.collects) sends in
        let b3 = barrier_all t in
        on_phase (Collected (v - 1));
        { version = v; install_mods; flip_mods; gc_mods; barriers = b1 + b2 + b3 }
    | `Unsafe_single_phase ->
        (* Negative control for tests and benches: cut each switch over
           to the final ruleset in one go, switch by switch.  Once the
           first switch (the core) has dropped a flipped slice's
           old-parity copies, edges not yet cut over still stamp that
           parity and their frames find no transit rule there — exactly
           the mixed-ruleset window the two-phase protocol closes, and
           what {!process}'s detector counts. *)
        let barriers = ref 0 in
        let flip_mods =
          sum
            (fun p ->
              let n = send p.member (p.installs @ p.ingress @ p.collects) in
              barriers := !barriers + barrier_all t;
              on_phase (Synced_member p.member.id);
              n)
            sends
        in
        { version = v; install_mods = 0; flip_mods; gc_mods = 0; barriers = !barriers }
  in
  t.version <- v;
  t.commits <- t.commits + 1;
  t.last_commit <- Some stats;
  Sdx_obs.Registry.Counter.incr g_commits;
  stats

(* ------------------------------------------------------------------ *)
(* The data plane *)

(* The frames [pkt] delivers from switch [s] on, consed onto [acc].  A
   walk allocates the frames it forwards and their list cells, nothing
   else: one record per hop, built at the far end of a trunk. *)
let rec at_switch w hops s (pkt : Packet.t) acc =
  if hops > w.max_hops then begin
    w.on_anomaly ();
    acc
  end
  else
    let tagged = Vtag.is_tagged pkt.Packet.dst_mac in
    match w.probe s pkt with
    | None ->
        if tagged then begin
          w.on_miss ();
          w.on_anomaly ()
        end;
        acc
    | Some (flow : Flow.t) ->
        if tagged && flow.Flow.priority < transit_base then w.on_anomaly ();
        apply_actions w hops s pkt flow.Flow.actions acc

and apply_actions w hops s pkt actions acc =
  match actions with
  | [] -> acc
  | (m : Mods.t) :: rest ->
      let acc =
        match m.Mods.port with
        | None -> Mods.apply m pkt :: acc
        | Some p -> (
            match Topology.trunk_destination w.w_topo p with
            | Some (_owner, neighbor) ->
                let dst = Option.value m.Mods.dst_mac ~default:pkt.Packet.dst_mac in
                (match Vtag.parity dst with
                | Some parity -> w.on_trunk_tag (Vtag.index dst) parity
                | None -> w.on_anomaly () (* untagged frame on a trunk *));
                let port = Topology.trunk_port w.w_topo ~from:neighbor ~toward_neighbor:s in
                at_switch w (hops + 1) neighbor (Mods.apply_at m ~port pkt) acc
            | None ->
                let out = Mods.apply m pkt in
                if p <> blackhole && Vtag.is_tagged out.Packet.dst_mac then
                  w.on_anomaly () (* delivered frame leaks its tag *);
                out :: acc)
      in
      apply_actions w hops s pkt rest acc

(* A delivery set in canonical order; one frame needs no sort. *)
let deliveries = function
  | ([] | [ _ ]) as outs -> outs
  | outs -> Packet.Set.elements (Packet.Set.of_list outs)

let process t pkt =
  match Topology.home_of_port t.topo pkt.Packet.port with
  | None -> []
  | Some s0 ->
      let mon = t.monitor in
      mon.anomaly <- false;
      mon.missed <- false;
      mon.dest <- -1;
      mon.bits <- 0;
      mon.more <- [];
      mon.mixed <- false;
      let outs = deliveries (at_switch t.walker 0 s0 pkt []) in
      t.packets <- t.packets + 1;
      (* One destination with both parities on one packet's delivery
         tree: the frame crossed a mixed ruleset. *)
      if mon.bits = 3 || mon.mixed then mon.anomaly <- true;
      if mon.missed then begin
        t.transit_misses <- t.transit_misses + 1;
        Sdx_obs.Registry.Counter.incr g_transit_miss
      end;
      if mon.anomaly then begin
        t.mixed_version_packets <- t.mixed_version_packets + 1;
        Sdx_obs.Registry.Counter.incr g_mixed
      end;
      outs

(* Pure parallel readers: snapshots are built on the owning domain; each
   worker domain then builds its own searcher cursors. *)
type snap = {
  snap_topo : Topology.t;
  snap_tables : (int * Table.snapshot) list;
}

let snapshots t =
  {
    snap_topo = t.topo;
    snap_tables = List.map (fun m -> (m.id, Table.snapshot m.table)) t.members;
  }

let reader snap =
  let topo = snap.snap_topo in
  let finds =
    by_switch topo
      (fun _ -> None)
      (List.map (fun (s, sn) -> (s, Table.searcher sn)) snap.snap_tables)
  in
  let w =
    walker topo
      ~probe:(fun s pkt -> finds.(s) pkt)
      ~on_anomaly:ignore ~on_miss:ignore
      ~on_trunk_tag:(fun _ _ -> ())
  in
  fun pkt ->
    match Topology.home_of_port topo pkt.Packet.port with
    | None -> []
    | Some s0 -> deliveries (at_switch w 0 s0 pkt [])

(* ------------------------------------------------------------------ *)

(* A static view of the installed tables for the symbolic loop checker:
   the checker walks {!Topology.fabric} values, so rebuild one from the
   live switch tables. *)
let check_view t =
  let view = Topology.build t.topo [] in
  List.iter
    (fun m ->
      let rules =
        List.map
          (fun (f : Flow.t) ->
            { Classifier.pattern = f.Flow.pattern; action = f.Flow.actions })
          (Table.entries m.table)
      in
      Topology.set_table view m.id rules)
    t.members;
  view
