open Sdx_net
open Sdx_policy

type t = {
  switches : int list;
  switch_count : int;
  links : (int * int) list;
  tree_edges : (int * int) list;
  hosts_ports : (int, unit) Hashtbl.t;  (* switches with a physical port *)
  (* parent.(s) on the BFS tree rooted at the smallest switch id *)
  parent : (int, int) Hashtbl.t;
  (* The port maps the packet walk reads on every hop, built here as
     arrays of preallocated options so a read neither hashes nor
     allocates. *)
  homes : int option array;  (* physical port -> its switch *)
  trunk_base : int;  (* the first trunk port id *)
  trunk_owner : (int * int) option array;
      (* trunk port - trunk_base -> (switch, neighbor) *)
  slots : int array;  (* switch id -> dense index, -1 for none *)
  trunk_ports : int array;
      (* slot of a switch * switch_count + slot of a tree neighbor ->
         the local trunk port toward it, -1 for none *)
}

let create ~switches ~links ~port_home =
  if switches = [] then invalid_arg "Topology.create: no switches";
  List.iter
    (fun s ->
      if s < 0 then invalid_arg (Printf.sprintf "Topology.create: negative switch id %d" s))
    switches;
  List.iter
    (fun (p, _) ->
      if p < 0 then invalid_arg (Printf.sprintf "Topology.create: negative port %d" p))
    port_home;
  let known = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace known s ()) switches;
  let check s =
    if not (Hashtbl.mem known s) then
      invalid_arg (Printf.sprintf "Topology.create: unknown switch %d" s)
  in
  List.iter (fun (a, b) -> check a; check b) links;
  let max_port = List.fold_left (fun m (p, _) -> max m p) 0 port_home in
  let homes = Array.make (max_port + 1) None in
  let hosts_ports = Hashtbl.create 8 in
  List.iter
    (fun (port, s) ->
      check s;
      homes.(port) <- Some s;
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
  let switches = List.sort_uniq Int.compare switches in
  if Hashtbl.length visited <> List.length switches then
    invalid_arg "Topology.create: link graph does not connect all switches";
  let n = List.length switches in
  let slots = Array.make (List.fold_left max 0 switches + 1) (-1) in
  List.iteri (fun i s -> slots.(s) <- i) switches;
  (* Trunk port ids: allocated above the physical range. *)
  let trunk_base = 1000 + max_port in
  let trunk_owner = Array.make (2 * List.length !tree_edges) None in
  let trunk_ports = Array.make (n * n) (-1) in
  List.iteri
    (fun i (a, b) ->
      trunk_owner.(2 * i) <- Some (a, b);
      trunk_owner.((2 * i) + 1) <- Some (b, a);
      trunk_ports.((slots.(a) * n) + slots.(b)) <- trunk_base + (2 * i);
      trunk_ports.((slots.(b) * n) + slots.(a)) <- trunk_base + (2 * i) + 1)
    !tree_edges;
  {
    switches;
    switch_count = n;
    links;
    tree_edges = !tree_edges;
    hosts_ports;
    parent;
    homes;
    trunk_base;
    trunk_owner;
    slots;
    trunk_ports;
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

let switch_count t = t.switch_count
let switches t = t.switches

let has_physical_ports t s = Hashtbl.mem t.hosts_ports s

let edge_switches t = List.filter (has_physical_ports t) t.switches
let core_switches t = List.filter (fun s -> not (has_physical_ports t s)) t.switches
let home_of_port t p = if p >= 0 && p < Array.length t.homes then t.homes.(p) else None

let trunk_destination t p =
  let i = p - t.trunk_base in
  if i >= 0 && i < Array.length t.trunk_owner then t.trunk_owner.(i) else None

let physical_ports t =
  let acc = ref [] in
  for p = Array.length t.homes - 1 downto 0 do
    Option.iter (fun s -> acc := (p, s) :: !acc) t.homes.(p)
  done;
  !acc

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

let slot t s = if s >= 0 && s < Array.length t.slots then t.slots.(s) else -1

let trunk_port t ~from ~toward_neighbor =
  let a = slot t from and b = slot t toward_neighbor in
  let p = if a < 0 || b < 0 then -1 else t.trunk_ports.((a * t.switch_count) + b) in
  if p < 0 then raise Not_found else p

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
          match home_of_port t p with
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
                match home_of_port t p with
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
          match trunk_destination f.topo out.port with
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
