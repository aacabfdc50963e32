open Sdx_net
open Sdx_bgp
open Sdx_core

let reachable config ~(sender : Participant.t) ~via (clause : Ppolicy.clause) =
  let set =
    Prefix.Set.of_list
      (Route_server.reachable_prefixes (Config.server config) ~receiver:sender.asn
         ~via)
  in
  match Compile.dst_restriction clause.pred with
  | None -> set
  | Some allowed ->
      Prefix.Set.filter (fun p -> List.exists (Prefix.overlaps p) allowed) set

let partition config =
  let participants = Config.participants config in
  let via_sets =
    List.concat_map
      (fun (sender : Participant.t) ->
        List.filter_map
          (fun (c : Ppolicy.clause) ->
            match c.target with
            | Ppolicy.Peer via -> Some (reachable config ~sender ~via c)
            | Ppolicy.Drop | Ppolicy.Default | Ppolicy.Phys _ | Ppolicy.Redirect _ ->
                None)
          sender.outbound)
      participants
  in
  let origin_sets =
    List.filter_map
      (fun (p : Participant.t) ->
        match p.originated with
        | [] -> None
        | prefixes -> Some (Prefix.Set.of_list prefixes))
      participants
  in
  Fec.partition ~sets:(via_sets @ origin_sets)
    ~default_key:(Compile.default_keys config)
