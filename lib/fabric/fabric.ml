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
   - a *transit* copy of every port-unpinned dst-MAC rule, installed on
     every switch in a priority band far above the ingress band, matching
     the tagged address and forwarding toward (or delivering at) the
     destination's home switch.

   The transit copies of one destination MAC form its *slice*, and each
   slice carries its own version parity in its tags.  A commit flips
   only the slices whose rules changed (as {!Runtime.flows} emits them),
   closed over slices whose copies re-stamp toward a flipped MAC:

   1. install the flipped (and new) slices' copies at their new parity,
      cookie-tagged by that tag (make-before-break: inert until
      something stamps the new parity); barrier every connection;
   2. add, overwrite or delete the ingress rules that are new, changed
      or gone, or that stamp a flipped MAC; barrier;
   3. delete the flipped and departed slices' old-parity copies with one
      [delete_cookie] each; barrier.

   In-flight frames carrying an old parity still match that parity's
   copies until phase 3, and phase 3 only starts after phase 2's
   barriers prove no edge stamps it anymore.  The closure is what keeps
   a packet on one version: an unflipped slice only ever re-stamps
   toward unflipped slices, whose rules read the same in both rulesets.
   An unchanged ruleset sends no flow-mod at all. *)

let transit_base = 16_000_000
(* The transit bands sit above every ingress priority (the runtime's
   bands top out in the tens of thousands); both parities share the
   offset because their patterns are disjoint in the tag octet. *)

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
  | Installed of int  (** new slice copies everywhere, old rules live *)
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

type t = {
  topo : Topology.t;
  members : member list;  (* ascending switch id *)
  by_id : member option array;  (* switch id -> member *)
  tags : Vtag.t;
  trunked : bool;  (* false for the degenerate single-switch layout *)
  (* The last committed ruleset, the baseline of the next diff: logical
     flows by (priority, pattern), each slice's rules in emission order,
     and each slice's parity. *)
  mutable committed : Flow.t Table.KeyTbl.t;
  mutable slices : (Mac.t, Flow.t list) Hashtbl.t;
  mutable parities : (Mac.t, int) Hashtbl.t;
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

let create ?capacity topo =
  let members =
    List.map
      (fun id ->
        let switch = Switch.create ?capacity () in
        { id; switch; table = Switch.table switch 0; connection = Connection.create switch })
      (Topology.switches topo)
  in
  let by_id = by_switch topo None (List.map (fun m -> (m.id, Some m)) members) in
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
    committed = Table.KeyTbl.create 16;
    slices = Hashtbl.create 16;
    parities = Hashtbl.create 16;
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
    ~version:(Option.value (Hashtbl.find_opt t.parities mac) ~default:0)
    mac

(* Rewrite one action atom for switch [s]: local ports stay; remote
   ports leave on the trunk toward their home, with the frame stamped
   with its destination's tag. *)
let localize_mod t s (pattern : Pattern.t) (m : Mods.t) =
  match home_of t m with
  | None -> m (* no output, the blackhole, or a port that no longer exists *)
  | Some home when home = s -> m
  | Some home ->
      let hop = Option.get (Topology.next_hop t.topo ~from:s ~toward:home) in
      {
        m with
        port = Some (Topology.trunk_port t.topo ~from:s ~toward_neighbor:hop);
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
      | Some home when home <> s -> Hashtbl.mem flipped (trunk_target f.pattern m)
      | _ -> false)
    f.actions

(* The slice a logical rule belongs to: port-unpinned dst-MAC rules. *)
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

(* The other slices [rules]' copies re-stamp toward. *)
let restamp_targets t mac rules =
  List.concat_map
    (fun (f : Flow.t) ->
      List.filter_map
        (fun m ->
          match home_of t m with
          | Some _ ->
              let target = trunk_target f.pattern (restore mac m) in
              if Mac.equal target mac then None else Some target
          | None -> None)
        f.actions)
    rules

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

(* What a commit sends: each member's phase-1 and phase-2 messages, and
   the phase-3 cookie deletes every member gets. *)
type plan = {
  per_member : (member * Message.t list * Message.t list) list;
  collects : Message.t list;
}

let plan_is_empty p =
  p.collects = [] && List.for_all (fun (_, i, g) -> i = [] && g = []) p.per_member

(* The new ruleset by slot (last occurrence wins, as sequential ADDs
   would), and its slices' rules in emission order, with the slice MACs
   in order of first emission. *)
let index t flows =
  let by_key = Table.KeyTbl.create (max 16 (Table.KeyTbl.length t.committed)) in
  let slices = Hashtbl.create (max 16 (Hashtbl.length t.slices)) in
  let order = ref [] in
  List.iter
    (fun (f : Flow.t) ->
      check_priority f;
      Table.KeyTbl.replace by_key (f.priority, f.pattern) f;
      match slice_of f with
      | Some mac when t.trunked -> (
          match Hashtbl.find_opt slices mac with
          | Some rules -> Hashtbl.replace slices mac (f :: rules)
          | None ->
              Hashtbl.replace slices mac [ f ];
              order := mac :: !order)
      | _ -> ())
    flows;
  Hashtbl.filter_map_inplace (fun _ rules -> Some (List.rev rules)) slices;
  (by_key, slices, List.rev !order)

(* Slices that are new or whose rules changed, closed over the slices
   whose copies re-stamp toward a flipped MAC. *)
let flipped_slices t slices order =
  let flipped = Hashtbl.create 16 and dependents = Hashtbl.create 16 in
  let work = Queue.create () in
  let flip mac =
    if not (Hashtbl.mem flipped mac) then begin
      Hashtbl.replace flipped mac ();
      Queue.push mac work
    end
  in
  List.iter
    (fun mac ->
      let rules = Hashtbl.find slices mac in
      (match Hashtbl.find_opt t.slices mac with
      | Some old when List.equal ( = ) old rules -> ()
      | _ -> flip mac);
      List.iter
        (fun target -> Hashtbl.add dependents target mac)
        (restamp_targets t mac rules))
    order;
  while not (Queue.is_empty work) do
    List.iter flip (Hashtbl.find_all dependents (Queue.pop work))
  done;
  flipped

(* Diff [flows] against the committed ruleset.  Nothing is sent and the
   fabric's bookkeeping (committed flows, slices, parities) moves to the
   new ruleset only once the whole plan is built, so a ruleset rejected
   with [Invalid_argument] leaves the fabric as it was. *)
let plan t flows =
  let by_key, slices, order = index t flows in
  let flipped = flipped_slices t slices order in
  (* Old-parity copies to collect: those of slices whose MAC left the
     ruleset, and of flipped slices that had some. *)
  let collects =
    Hashtbl.fold
      (fun mac _ acc -> if Hashtbl.mem slices mac then acc else mac :: acc)
      t.slices
      (List.filter (fun mac -> Hashtbl.mem flipped mac && Hashtbl.mem t.parities mac) order)
    |> List.map (fun mac -> Message.delete_cookie (Mac.to_int (tag t mac)))
  in
  (* The ingress diff: the last occurrence of each slot that is new or
     changed ([true]), or unchanged but possibly stamping a flipped MAC
     ([false]); newest first. *)
  let candidates =
    List.fold_left
      (fun acc (f : Flow.t) ->
        let key = (f.priority, f.pattern) in
        if Table.KeyTbl.find by_key key != f then acc
        else
          match Table.KeyTbl.find_opt t.committed key with
          | Some old when old = f ->
              if Hashtbl.length flipped = 0 then acc else (f, false) :: acc
          | _ -> (f, true) :: acc)
      [] flows
  in
  let gone =
    Table.KeyTbl.fold
      (fun key f acc -> if Table.KeyTbl.mem by_key key then acc else f :: acc)
      t.committed []
  in
  let old_parities = t.parities in
  let parities = Hashtbl.create (Hashtbl.length slices) in
  List.iter
    (fun mac ->
      let old = Hashtbl.find_opt old_parities mac in
      Hashtbl.replace parities mac
        (match old with
        | Some p when Hashtbl.mem flipped mac -> 1 - p
        | Some p -> p
        | None -> 0))
    order;
  (* Copies and stamps below read the new parities. *)
  t.parities <- parities;
  match
    List.map
      (fun m ->
        let s = m.id in
        let installs =
          List.concat_map
            (fun mac ->
              if not (Hashtbl.mem flipped mac) then []
              else
                let cookie = Mac.to_int (tag t mac) in
                List.map (Message.add ~cookie) (slice_copies t s mac (Hashtbl.find slices mac)))
            order
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
        (m, installs, ingress))
      t.members
  with
  | per_member ->
      t.committed <- by_key;
      t.slices <- slices;
      { per_member; collects }
  | exception e ->
      t.parities <- old_parities;
      raise e

(* Hand one switch its messages as one batch; the flow-mods it applied. *)
let send m msgs =
  let before = Connection.flow_mods_applied m.connection in
  Connection.send_all m.connection msgs;
  Connection.flow_mods_applied m.connection - before

let sum f l = List.fold_left (fun n x -> n + f x) 0 l

let commit ?(protocol = `Two_phase) ?(on_phase = fun (_ : phase) -> ()) t flows
    =
  let p = plan t flows in
  let v = if plan_is_empty p then t.version else t.version + 1 in
  let stats =
    match protocol with
    | `Two_phase ->
        (* Phase 1: make-before-break.  New-parity copies are inert
           until an ingress rule stamps that parity. *)
        let install_mods = sum (fun (m, installs, _) -> send m installs) p.per_member in
        let b1 = barrier_all t in
        on_phase (Installed v);
        (* Phase 2: flip the edges.  Rules that only change their stamps
           keep their (priority, pattern), so they overwrite in place. *)
        let flip_mods = sum (fun (m, _, ingress) -> send m ingress) p.per_member in
        let b2 = barrier_all t in
        on_phase (Flipped v);
        (* Phase 3: no edge stamps an old parity anymore (the phase-2
           barriers proved it), so the old-parity copies are garbage. *)
        let gc_mods = sum (fun m -> send m p.collects) t.members in
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
            (fun (m, installs, ingress) ->
              let n = send m (installs @ ingress @ p.collects) in
              barriers := !barriers + barrier_all t;
              on_phase (Synced_member m.id);
              n)
            p.per_member
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
   else. *)
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
      let out = Mods.apply m pkt in
      let acc =
        match m.Mods.port with
        | None -> out :: acc
        | Some p -> (
            match Topology.trunk_destination w.w_topo p with
            | Some (_owner, neighbor) ->
                (match Vtag.parity out.Packet.dst_mac with
                | Some parity -> w.on_trunk_tag (Vtag.index out.Packet.dst_mac) parity
                | None -> w.on_anomaly () (* untagged frame on a trunk *));
                let in_port = Topology.trunk_port w.w_topo ~from:neighbor ~toward_neighbor:s in
                at_switch w (hops + 1) neighbor { out with port = in_port } acc
            | None ->
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
