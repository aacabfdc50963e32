open Sdx_net
open Sdx_bgp

type t = {
  runtime : Sdx_core.Runtime.t;
  fabric : Fabric.t;
  routers : (Asn.t, Border_router.t) Hashtbl.t;
  middleboxes : (Asn.t, Middlebox.t) Hashtbl.t;
  telemetry : Telemetry.t;
  mutable last_sync_flow_mods : int;
}

(* Bound on middlebox re-injections per original packet, so a steering
   loop degrades to a drop instead of diverging. *)
let max_chain_depth = 8

type delivery = {
  receiver : Asn.t;
  receiver_port : int;
  packet : Packet.t;
}

(* Bring every switch to the runtime's current ruleset through the
   fabric's two-phase consistent update. *)
let commit ?protocol ?on_phase t =
  let stats =
    Fabric.commit ?protocol ?on_phase t.fabric (Sdx_core.Runtime.flows t.runtime)
  in
  t.last_sync_flow_mods <- Fabric.total_mods stats;
  stats

let create ?switch_capacity ?topology runtime =
  let config = Sdx_core.Runtime.config runtime in
  let routers = Hashtbl.create 64 in
  List.iter
    (fun (p : Sdx_core.Participant.t) ->
      match p.ports with
      | [] -> ()
      | first :: _ ->
          Hashtbl.replace routers p.asn
            (Border_router.create config ~asn:p.asn ~port:first.index))
    (Sdx_core.Config.participants config);
  let topo =
    match topology with
    | Some topo -> topo
    | None ->
        Topology.single
          ~ports:
            (List.init (Sdx_core.Config.port_count config) (fun i -> i + 1))
  in
  let t =
    {
      runtime;
      fabric = Fabric.create ?capacity:switch_capacity topo;
      routers;
      middleboxes = Hashtbl.create 8;
      telemetry = Telemetry.create ();
      last_sync_flow_mods = 0;
    }
  in
  ignore (commit t);
  Hashtbl.iter (fun _ r -> Border_router.sync r runtime) routers;
  t

let runtime t = t.runtime
let fabric t = t.fabric
let topology t = Fabric.topo t.fabric
let switch t = Fabric.switch t.fabric (List.hd (Fabric.switches t.fabric))

let router t asn =
  match Hashtbl.find_opt t.routers asn with
  | Some r -> r
  | None -> raise Not_found

let connection t = Fabric.connection t.fabric (List.hd (Fabric.switches t.fabric))
let last_sync_flow_mods t = t.last_sync_flow_mods

let sync t =
  ignore (commit t);
  Hashtbl.iter (fun _ r -> Border_router.sync r t.runtime) t.routers

let deliveries_of_outputs t pkts =
  let config = Sdx_core.Runtime.config t.runtime in
  List.filter_map
    (fun (pkt : Packet.t) ->
      if pkt.port = Sdx_core.Compile.blackhole_port then None
      else
        match Sdx_core.Config.owner_of_port config pkt.port with
        | p, port ->
            Some
              {
                receiver = p.Sdx_core.Participant.asn;
                receiver_port = port.Sdx_core.Participant.index;
                packet = pkt;
              }
        | exception Not_found -> None)
    pkts

let attach_middlebox t asn fn =
  if not (Hashtbl.mem t.routers asn) then
    invalid_arg "Network.attach_middlebox: host has no physical port";
  Hashtbl.replace t.middleboxes asn fn

let detach_middlebox t asn = Hashtbl.remove t.middleboxes asn

(* Resolve deliveries, bouncing middlebox-hosted ones back through the
   host's border router until only real deliveries remain. *)
let rec resolve t depth deliveries =
  List.concat_map
    (fun d ->
      match Hashtbl.find_opt t.middleboxes d.receiver with
      | None -> [ d ]
      | Some fn ->
          if depth >= max_chain_depth then begin
            (* The chain is still steering at the bound: this packet is
               lost, and silently so unless someone counts it. *)
            Telemetry.record_steering_drop t.telemetry;
            []
          end
          else
            let router = Hashtbl.find t.routers d.receiver in
            List.concat_map
              (fun out ->
                match Border_router.send router out with
                | None -> []
                | Some tagged ->
                    resolve t (depth + 1)
                      (deliveries_of_outputs t (Fabric.process t.fabric tagged)))
              (fn d.packet))
    deliveries

let inject_at_port t pkt =
  resolve t 0 (deliveries_of_outputs t (Fabric.process t.fabric pkt))

let telemetry t = t.telemetry
let steering_drops t = Telemetry.steering_drops t.telemetry

let frame_of_delivery d = Codec.to_bytes d.packet

let inject t ~from pkt =
  let deliveries =
    match Hashtbl.find_opt t.routers from with
    | None -> []
    | Some r -> (
        match Border_router.send r pkt with
        | None -> []
        | Some tagged -> inject_at_port t tagged)
  in
  Telemetry.record t.telemetry ~src:from ~packet:pkt
    ~receivers:(List.map (fun d -> d.receiver) deliveries);
  deliveries

let inject_frame t ~from data =
  Result.map (inject t ~from) (Codec.of_bytes data)
