open Sdx_net
open Sdx_policy

type t = {
  switches : int list;
  links : (int * int) list;
  tree_edges : (int * int) list;
  port_home : (int, int) Hashtbl.t;
  hosts_ports : (int, unit) Hashtbl.t;  (* switches with a physical port *)
  (* parent.(s) on the BFS tree rooted at the smallest switch id *)
  parent : (int, int) Hashtbl.t;
  (* trunk port numbers: (switch, neighbor) -> local port id *)
  trunk_ports : (int * int, int) Hashtbl.t;
  trunk_owner : (int, int * int) Hashtbl.t;  (* port id -> (switch, neighbor) *)
}

let create ~switches ~links ~port_home =
  if switches = [] then invalid_arg "Topology.create: no switches";
  let known = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace known s ()) switches;
  let check s =
    if not (Hashtbl.mem known s) then
      invalid_arg (Printf.sprintf "Topology.create: unknown switch %d" s)
  in
  List.iter (fun (a, b) -> check a; check b) links;
  let homes = Hashtbl.create 64 in
  let hosts_ports = Hashtbl.create 8 in
  List.iter
    (fun (port, s) ->
      check s;
      Hashtbl.replace homes port s;
      Hashtbl.replace hosts_ports s ())
    port_home;
  (* BFS spanning tree from the smallest switch id. *)
  let root = List.fold_left min (List.hd switches) switches in
  let adj = Hashtbl.create 8 in
  let add_adj a b =
    let cur = Option.value (Hashtbl.find_opt adj a) ~default:[] in
    Hashtbl.replace adj a (b :: cur)
  in
  List.iter (fun (a, b) -> add_adj a b; add_adj b a) links;
  let parent = Hashtbl.create 8 in
  let visited = Hashtbl.create 8 in
  Hashtbl.replace visited root ();
  let queue = Queue.create () in
  Queue.push root queue;
  let tree_edges = ref [] in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let neighbors =
      List.sort Int.compare (Option.value (Hashtbl.find_opt adj s) ~default:[])
    in
    List.iter
      (fun n ->
        if not (Hashtbl.mem visited n) then begin
          Hashtbl.replace visited n ();
          Hashtbl.replace parent n s;
          tree_edges := (s, n) :: !tree_edges;
          Queue.push n queue
        end)
      neighbors
  done;
  if Hashtbl.length visited <> List.length (List.sort_uniq Int.compare switches)
  then invalid_arg "Topology.create: link graph does not connect all switches";
  (* Trunk port ids: allocated above the physical range. *)
  let base =
    1000 + List.fold_left (fun m (p, _) -> max m p) 0 port_home
  in
  let trunk_ports = Hashtbl.create 16 in
  let trunk_owner = Hashtbl.create 16 in
  List.iteri
    (fun i (a, b) ->
      let pa = base + (2 * i) and pb = base + (2 * i) + 1 in
      Hashtbl.replace trunk_ports (a, b) pa;
      Hashtbl.replace trunk_ports (b, a) pb;
      Hashtbl.replace trunk_owner pa (a, b);
      Hashtbl.replace trunk_owner pb (b, a))
    !tree_edges;
  {
    switches = List.sort_uniq Int.compare switches;
    links;
    tree_edges = !tree_edges;
    port_home = homes;
    hosts_ports;
    parent;
    trunk_ports;
    trunk_owner;
  }

(* Degenerate layout: every port on one switch, no trunks. *)
let single ~ports =
  create ~switches:[ 0 ] ~links:[] ~port_home:(List.map (fun p -> (p, 0)) ports)

(* The "Revisiting Open eXchange Points" deployment shape: a core hub
   (switch 0) with [edges] leaf switches hanging off it, the physical
   ports partitioned round-robin across the edges.  The core hosts no
   physical port, so its table ends up holding tag-forwarding rules
   only. *)
let edge_core ~edges ~ports =
  if edges < 1 then invalid_arg "Topology.edge_core: need at least one edge";
  let switches = 0 :: List.init edges (fun i -> i + 1) in
  let links = List.init edges (fun i -> (0, i + 1)) in
  let port_home =
    List.mapi (fun i p -> (p, 1 + (i mod edges))) (List.sort Int.compare ports)
  in
  create ~switches ~links ~port_home

let switch_count t = List.length t.switches
let switches t = t.switches

let has_physical_ports t s = Hashtbl.mem t.hosts_ports s

let edge_switches t = List.filter (has_physical_ports t) t.switches
let core_switches t = List.filter (fun s -> not (has_physical_ports t s)) t.switches
let home_of_port t p = Hashtbl.find_opt t.port_home p
let trunk_destination t p = Hashtbl.find_opt t.trunk_owner p
let physical_ports t = Hashtbl.fold (fun p s acc -> (p, s) :: acc) t.port_home []
let spanning_tree_edges t = List.rev t.tree_edges

(* Path to the root as a list of switches, used to find tree paths. *)
let path_to_root t s =
  let rec go s acc =
    match Hashtbl.find_opt t.parent s with
    | None -> s :: acc
    | Some p -> go p (s :: acc)
  in
  go s []

let next_hop t ~from ~toward =
  if from = toward then None
  else
    (* The tree path between two nodes goes up from each to their lowest
       common ancestor. *)
    let pa = path_to_root t from and pb = path_to_root t toward in
    let rec strip = function
      | a :: (a' :: _ as ta), b :: (b' :: _ as tb) when a = b && a' = b' ->
          strip (ta, tb)
      | pa, pb -> (pa, pb)
    in
    let pa, pb = strip (pa, pb) in
    (* pa and pb now start at the LCA. *)
    match (pa, pb) with
    | _ :: _, [ _ ] ->
        (* toward is the LCA: step to our parent. *)
        Hashtbl.find_opt t.parent from
    | [ _ ], _ :: second :: _ ->
        (* we are the LCA: step down toward the target. *)
        Some second
    | _ :: _, _ :: _ ->
        (* go up toward the LCA. *)
        Hashtbl.find_opt t.parent from
    | _ -> None

let trunk_port t ~from ~toward_neighbor =
  Hashtbl.find t.trunk_ports (from, toward_neighbor)

(* ------------------------------------------------------------------ *)

type fabric = {
  topo : t;
  tables : (int, Classifier.t) Hashtbl.t;
}

(* Rewrite a rule's outputs for switch [s]: local ports stay, remote
   ports leave on the trunk toward their home switch. *)
let localize_rule t s (r : Classifier.rule) =
  let localize_mod (m : Mods.t) =
    match m.port with
    | None -> m
    | Some p -> (
        if p = Sdx_core.Compile.blackhole_port then m
        else
          match Hashtbl.find_opt t.port_home p with
          | None -> m
          | Some home ->
              if home = s then m
              else
                let hop = Option.get (next_hop t ~from:s ~toward:home) in
                { m with port = Some (trunk_port t ~from:s ~toward_neighbor:hop) })
  in
  { r with action = List.map localize_mod r.action }

let build t classifier =
  let tables = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let rules =
        List.filter_map
          (fun (r : Classifier.rule) ->
            match r.pattern.Pattern.port with
            | Some p -> (
                match Hashtbl.find_opt t.port_home p with
                | Some home when home = s -> Some (localize_rule t s r)
                | Some _ -> None  (* another switch's ingress rule *)
                | None -> None (* pinned to a port that no longer exists *))
            | None ->
                (* Destination-MAC rules serve both local ingress and
                   trunk transit: install everywhere. *)
                Some (localize_rule t s r))
          classifier
      in
      Hashtbl.replace tables s (rules @ Classifier.drop_all))
    t.switches;
  { topo = t; tables }

let topo f = f.topo

let tables f =
  List.filter_map
    (fun s -> Option.map (fun c -> (s, c)) (Hashtbl.find_opt f.tables s))
    f.topo.switches

let table f s = Hashtbl.find_opt f.tables s
let set_table f s c = Hashtbl.replace f.tables s c

let rule_count f s =
  match Hashtbl.find_opt f.tables s with
  | Some c -> Classifier.rule_count c
  | None -> 0

let total_rules f = Hashtbl.fold (fun _ c n -> n + Classifier.rule_count c) f.tables 0

let process f (pkt : Packet.t) =
  (* Follow the packet switch by switch; trunks are loop-free (tree), and
     the hop bound guards against miswired tables anyway. *)
  let max_hops = 4 * switch_count f.topo in
  let rec at_switch hops s (pkt : Packet.t) =
    if hops > max_hops then []
    else
      let table = Hashtbl.find f.tables s in
      List.concat_map
        (fun (out : Packet.t) ->
          match Hashtbl.find_opt f.topo.trunk_owner out.port with
          | Some (owner, neighbor) ->
              assert (owner = s);
              (* The frame crosses the trunk and enters the neighbor on
                 the neighbor's side of the link. *)
              let in_port = trunk_port f.topo ~from:neighbor ~toward_neighbor:s in
              at_switch (hops + 1) neighbor { out with port = in_port }
          | None -> [ out ])
        (Classifier.eval table pkt)
  in
  match home_of_port f.topo pkt.port with
  | None -> []
  | Some s ->
      Packet.Set.elements (Packet.Set.of_list (at_switch 0 s pkt))
