open Sdx_net
open Sdx_policy
open Sdx_core

type result = {
  classifier : Classifier.t;
  provenance : (Compile.provenance * int) list;
  compose_s : float;
}

module Pipelines = Hashtbl.Make (struct
  type t = Sdx_bgp.Asn.t * Mods.t option

  let equal (a1, m1) (a2, m2) = Sdx_bgp.Asn.equal a1 a2 && Option.equal Mods.equal m1 m2

  let hash (a, m) =
    (Sdx_bgp.Asn.hash a * 31) + match m with None -> 0x3ac5 | Some m -> Mods.hash m
end)

(* Empty-action rules are totality filler from compiling a block's
   head; left in, they would shadow the blocks underneath. *)
let keep_forwards (c : Classifier.t) =
  List.filter (fun (r : Classifier.rule) -> r.action <> []) c

let provenance_of = function
  | Compile.Via_slot (spec, g) ->
      Compile.Outbound { sender = spec.sender.asn; via = spec.via; group = Some g.id }
  | Compile.Direct_slot spec ->
      Compile.Outbound { sender = spec.sender.asn; via = None; group = None }
  | Compile.Default_slot g -> Compile.Group_default { group = g.id }
  | Compile.Untagged_slot p -> Compile.Untagged { owner = p.asn }

let compose t config =
  let pipelines = Pipelines.create 64 in
  (* [owner]'s inbound pipeline, compiled once per delivery. *)
  let pipeline (owner : Participant.t) deliver =
    let key = (owner.asn, deliver) in
    match Pipelines.find_opt pipelines key with
    | Some c -> c
    | None ->
        let c =
          Classifier.compile
            (Compile.inbound_pipeline_ast config owner ~default_deliver:deliver)
        in
        Pipelines.replace pipelines key c;
        c
  in
  (* [pred], then [owner]'s pipeline. *)
  let through pred owner deliver =
    keep_forwards (Classifier.seq (Classifier.compile_pred pred) (pipeline owner deliver))
  in
  let ports asn = Config.switch_ports_of config asn in
  let deliver_on (port : Participant.port) n =
    Some (Compile.deliver_mods Mods.identity port n)
  in
  let via_block (spec : Compile.ospec) (g : Compile.group) =
    let via = Config.participant config (Option.get spec.via) in
    match (ports spec.sender.asn, Compile.delivery_port_for_via config via g.prefixes) with
    | [], _ | _, None -> []
    | sender_ports, Some (port, n) ->
        let head =
          Policy.seq
            [
              Policy.filter
                (Pred.conj
                   [ Pred.any_of_ports sender_ports; spec.clause.pred; Pred.dst_mac g.vmac ]);
              Policy.modify spec.clause.mods;
            ]
        in
        keep_forwards (Classifier.seq (Classifier.compile head) (pipeline via (deliver_on port n)))
  in
  let direct_block (spec : Compile.ospec) =
    let sender = spec.sender and c = spec.clause in
    let action =
      match c.target with
      | Ppolicy.Drop ->
          Some
            (Policy.modify (Mods.then_ c.mods (Mods.make ~port:Compile.blackhole_port ())))
      | Ppolicy.Phys k ->
          Some
            (Policy.modify
               (Compile.deliver_mods c.mods (Participant.port sender k)
                  (Config.switch_port config sender.asn k)))
      | Ppolicy.Default ->
          Option.map Policy.modify
            (Compile.resolve_default config ~receiver:sender.asn c.mods)
      | Ppolicy.Redirect mbox -> Some (Policy.modify (Compile.redirect_mods config c.mods mbox))
      | Ppolicy.Peer _ -> None
    in
    match (ports sender.asn, action) with
    | [], _ | _, None -> []
    | sender_ports, Some act ->
        keep_forwards
          (Classifier.compile
             (Policy.seq
                [ Policy.filter (Pred.and_ (Pred.any_of_ports sender_ports) c.pred); act ]))
  in
  (* Minority default variants are pinned to their receivers' in-ports
     above one unpinned block for the variant most receivers share. *)
  let default_block (g : Compile.group) =
    let originator =
      List.find_opt
        (fun (p : Participant.t) -> List.exists (Prefix.equal (List.hd g.prefixes)) p.originated)
        (Config.participants config)
    in
    let target = function
      | Some nh ->
          Option.map
            (fun (owner, port, n) -> (owner, deliver_on port n))
            (Config.port_of_next_hop config nh)
      | None -> Option.map (fun owner -> (owner, None)) originator
    in
    let block pred nh_opt =
      Option.map (fun (owner, deliver) -> through pred owner deliver) (target nh_opt)
    in
    let vmac = Pred.dst_mac g.vmac in
    match
      List.sort
        (fun (_, r1) (_, r2) -> Int.compare (List.length r2) (List.length r1))
        (List.filter (fun (nh_opt, _) -> Option.is_some (target nh_opt)) g.default_variants)
    with
    | [] -> []
    | (majority, _) :: minorities ->
        List.concat
          (List.filter_map
             (fun (nh_opt, receivers) ->
               match List.concat_map ports receivers with
               | [] -> None
               | pinned -> block (Pred.and_ (Pred.any_of_ports pinned) vmac) nh_opt)
             minorities
          @ Option.to_list (block vmac majority))
  in
  let untagged_block (p : Participant.t) =
    List.concat_map
      (fun (port : Participant.port) ->
        through (Pred.dst_mac port.mac) p
          (deliver_on port (Config.switch_port config p.asn port.index)))
      p.ports
  in
  let slots = Compile.slots t config in
  let t0 = Unix.gettimeofday () in
  let blocks =
    List.map
      (function
        | Compile.Via_slot (spec, g) -> via_block spec g
        | Compile.Direct_slot spec -> direct_block spec
        | Compile.Default_slot g -> default_block g
        | Compile.Untagged_slot p -> untagged_block p)
      slots
  in
  let compose_s = Unix.gettimeofday () -. t0 in
  {
    classifier = List.concat blocks @ Classifier.drop_all;
    provenance =
      List.map2 (fun s rules -> (provenance_of s, List.length rules)) slots blocks
      @ [ (Compile.Catch_all, List.length Classifier.drop_all) ];
    compose_s;
  }
