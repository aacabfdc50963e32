open Sdx_net
open Sdx_policy
open Sdx_core

let deliver_on config (p : Participant.t) (port : Participant.port) =
  Some
    (Compile.deliver_mods Mods.identity port (Config.switch_port config p.asn port.index))

let compose t config =
  let participants = Config.participants config in
  let groups = Compile.groups t in
  let pipeline owner default_deliver =
    Compile.inbound_pipeline_ast config owner ~default_deliver
  in
  let blackhole mods = Policy.modify (Mods.then_ mods (Mods.make ~port:Compile.blackhole_port ())) in
  (* The default layer: each group's variants, pinned to the senders
     whose best route each one is (unpinned, a packet would match every
     variant's term and be multicast), and each port's MAC-learning
     term for untagged traffic. *)
  let default_ast =
    let group_terms =
      List.concat_map
        (fun (g : Compile.group) ->
          let originator =
            List.find_opt
              (fun (p : Participant.t) ->
                List.exists (Prefix.equal (List.hd g.prefixes)) p.originated)
              participants
          in
          List.filter_map
            (fun (nh_opt, receivers) ->
              let target =
                match nh_opt with
                | Some nh ->
                    Option.map
                      (fun (owner, port, n) ->
                        pipeline owner (Some (Compile.deliver_mods Mods.identity port n)))
                      (Config.port_of_next_hop config nh)
                | None -> Option.map (fun owner -> pipeline owner None) originator
              in
              let ports = List.concat_map (Config.switch_ports_of config) receivers in
              Option.map
                (fun pl ->
                  Policy.seq
                    [
                      Policy.filter (Pred.and_ (Pred.any_of_ports ports) (Pred.dst_mac g.vmac));
                      pl;
                    ])
                target)
            g.default_variants)
        groups
    in
    let port_terms =
      List.concat_map
        (fun (p : Participant.t) ->
          List.map
            (fun (port : Participant.port) ->
              Policy.seq
                [ Policy.filter (Pred.dst_mac port.mac); pipeline p (deliver_on config p port) ])
            p.ports)
        participants
    in
    Policy.union (group_terms @ port_terms)
  in
  let sender_ast (sender : Participant.t) =
    let clause_action (c : Ppolicy.clause) =
      match c.target with
      | Ppolicy.Drop -> blackhole c.mods
      | Ppolicy.Phys k ->
          Policy.modify
            (Compile.deliver_mods c.mods (Participant.port sender k)
               (Config.switch_port config sender.asn k))
      | Ppolicy.Redirect mbox -> Policy.modify (Compile.redirect_mods config c.mods mbox)
      | Ppolicy.Default -> (
          match Compile.resolve_default config ~receiver:sender.asn c.mods with
          | Some m -> Policy.modify m
          | None -> blackhole c.mods)
      | Ppolicy.Peer _ -> Policy.drop
    in
    let chain =
      List.fold_right
        (fun (c : Ppolicy.clause) acc ->
          match c.target with
          | Ppolicy.Peer via_asn ->
              let via = Config.participant config via_asn in
              let covered = Naive.reachable config ~sender ~via:via_asn c in
              List.fold_right
                (fun (g : Compile.group) acc ->
                  if not (Prefix.Set.mem (List.hd g.prefixes) covered) then acc
                  else
                    let action =
                      match Compile.delivery_port_for_via config via g.prefixes with
                      | None -> Policy.drop
                      | Some (port, n) ->
                          Policy.seq
                            [
                              Policy.modify c.mods;
                              pipeline via (Some (Compile.deliver_mods Mods.identity port n));
                            ]
                    in
                    Policy.if_ (Pred.and_ c.pred (Pred.dst_mac g.vmac)) action acc)
                groups acc
          | _ -> Policy.if_ c.pred (clause_action c) acc)
        sender.outbound default_ast
    in
    Policy.seq
      [ Policy.filter (Pred.any_of_ports (Config.switch_ports_of config sender.asn)); chain ]
  in
  Classifier.compile
    (Policy.union
       (List.filter_map
          (fun (p : Participant.t) ->
            if Participant.is_remote p then None else Some (sender_ast p))
          participants))
