open Sdx_net

type t = {
  peers : Asn.t list;
  peer_set : Asn.Set.t;
  export : advertiser:Asn.t -> receiver:Asn.t -> bool;
  route_filter : Route.t -> receiver:Asn.t -> bool;
  adj_in : (Asn.t, Rib.Adj_in.t) Hashtbl.t;
  (* Candidate routes per prefix, one per advertiser, ranked by
     [Decision.prefer] (best first) and kept ranked on every announce
     and withdraw.  A receiver's best route is the first candidate the
     receiver may see, so state stays linear in the number of announced
     routes rather than #prefixes x #participants, and no per-receiver
     question sorts or filters a fresh list. *)
  by_prefix : (Prefix.t, Route.t list) Hashtbl.t;
  mutable prefix_index : unit Prefix_trie.t;
}

type change = { prefix : Prefix.t; best_changed_for : Asn.t list }

module Obs = struct
  open Sdx_obs.Registry

  let updates = counter "sdx_bgp_updates_total"
  let announces = counter "sdx_bgp_announce_total"
  let withdraws = counter "sdx_bgp_withdraw_total"

  (* One flip per (update, receiver) whose best route moved — the raw
     event count behind the paper's "data plane stays in sync with BGP"
     claim. *)
  let best_flips = counter "sdx_bgp_best_flips_total"
  let prefixes = gauge "sdx_bgp_prefixes"
end

let default_export ~advertiser:_ ~receiver:_ = true
let default_route_filter _route ~receiver:_ = true

let create ?(export = default_export) ?(route_filter = default_route_filter)
    peers =
  let adj_in = Hashtbl.create (List.length peers) in
  List.iter (fun p -> Hashtbl.replace adj_in p (Rib.Adj_in.create ())) peers;
  {
    peers;
    peer_set = Asn.Set.of_list peers;
    export;
    route_filter;
    adj_in;
    by_prefix = Hashtbl.create 4096;
    prefix_index = Prefix_trie.empty;
  }

let participants t = t.peers
let is_participant t asn = Asn.Set.mem asn t.peer_set

let exports_to t ~advertiser ~receiver =
  (not (Asn.equal advertiser receiver)) && t.export ~advertiser ~receiver

let ranked t prefix =
  match Hashtbl.find_opt t.by_prefix prefix with None -> [] | Some l -> l

let candidates t prefix =
  List.sort
    (fun (a : Route.t) (b : Route.t) -> Asn.compare a.learned_from b.learned_from)
    (ranked t prefix)

let rec find_from via = function
  | [] -> None
  | (r : Route.t) :: rest ->
      if Asn.equal r.learned_from via then Some r else find_from via rest

let route_from t ~via prefix = find_from via (ranked t prefix)

let rec path_contains asn = function
  | [] -> false
  | a :: rest -> Asn.equal a asn || path_contains asn rest

(* Standard BGP loop prevention: never hand a route to a receiver whose
   own AS number already appears in its path — one half of the §4.1
   forwarding-loop invariants. *)
let loop_free (r : Route.t) ~receiver = not (path_contains receiver r.as_path)

let exported t (r : Route.t) ~receiver =
  exports_to t ~advertiser:r.learned_from ~receiver
  && loop_free r ~receiver
  && t.route_filter r ~receiver

(* The first candidate in rank order that [receiver] may see, skipping
   [skip]'s route. *)
let rec first_exported t ~receiver ~skip = function
  | [] -> None
  | (r : Route.t) :: rest ->
      if (not (Asn.equal r.learned_from skip)) && exported t r ~receiver then
        Some r
      else first_exported t ~receiver ~skip rest

let best t ~receiver prefix =
  (* A receiver never sees its own routes, so skipping them is free. *)
  first_exported t ~receiver ~skip:receiver (ranked t prefix)

let feasible t ~receiver prefix =
  List.filter (fun r -> exported t r ~receiver) (ranked t prefix)

let require_participant t asn =
  if not (is_participant t asn) then
    invalid_arg (Printf.sprintf "Route_server: unknown participant %s" (Asn.to_string asn))

let rec remove_from via = function
  | [] -> []
  | (r : Route.t) :: rest ->
      if Asn.equal r.learned_from via then rest else r :: remove_from via rest

let rec insert_ranked route = function
  | [] -> [ route ]
  | r :: rest as l ->
      if Decision.prefer route r > 0 then route :: l
      else r :: insert_ranked route rest

let mutate_ribs t update =
  let peer = Update.peer update in
  let prefix = Update.prefix update in
  match update with
  | Update.Announce route -> (
      let adj = Hashtbl.find t.adj_in peer in
      Rib.Adj_in.add adj route;
      match Hashtbl.find_opt t.by_prefix prefix with
      | None ->
          Hashtbl.replace t.by_prefix prefix [ route ];
          t.prefix_index <- Prefix_trie.add prefix () t.prefix_index
      | Some l ->
          Hashtbl.replace t.by_prefix prefix
            (insert_ranked route (remove_from peer l)))
  | Update.Withdraw _ -> (
      let adj = Hashtbl.find t.adj_in peer in
      Rib.Adj_in.remove adj prefix;
      match Hashtbl.find_opt t.by_prefix prefix with
      | None -> ()
      | Some l -> (
          match remove_from peer l with
          | [] ->
              Hashtbl.remove t.by_prefix prefix;
              t.prefix_index <- Prefix_trie.remove prefix t.prefix_index
          | l -> Hashtbl.replace t.by_prefix prefix l))

(* [own] when [receiver] may see it, else [None]. *)
let offered t own ~receiver =
  match own with
  | Some r when exported t r ~receiver -> own
  | _ -> None

let same_route a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> a == b || Route.equal a b
  | _ -> false

(* The better of a receiver's best other route and the advertiser's own
   offer. *)
let pick other own =
  match (other, own) with
  | None, r | r, None -> r
  | Some o, Some r -> if Decision.prefer r o > 0 then own else other

(* Whether [receiver]'s best route moved when [peer]'s route went from
   [old_route] to [new_route].  Only [peer]'s route changed, so the best
   among the other candidates is the same before and after: the
   receiver's best moved iff the better of that route and [peer]'s
   offer differs between the two states.  A receiver offered the same
   route in both states, or none, is settled without walking the
   candidates. *)
let best_moved t ~peer ~old_route ~new_route ranked receiver =
  let before = offered t old_route ~receiver in
  let after = offered t new_route ~receiver in
  (not (same_route before after))
  &&
  let other = first_exported t ~receiver ~skip:peer ranked in
  not (same_route (pick other before) (pick other after))

let apply t update =
  let peer = Update.peer update in
  require_participant t peer;
  let prefix = Update.prefix update in
  let old_route = route_from t ~via:peer prefix in
  mutate_ribs t update;
  let new_route =
    match update with
    | Update.Announce route -> Some route
    | Update.Withdraw _ -> None
  in
  let ranked = ranked t prefix in
  let best_changed_for =
    List.filter (best_moved t ~peer ~old_route ~new_route ranked) t.peers
  in
  Sdx_obs.Registry.Counter.incr Obs.updates;
  Sdx_obs.Registry.Counter.incr
    (match update with
    | Update.Announce _ -> Obs.announces
    | Update.Withdraw _ -> Obs.withdraws);
  Sdx_obs.Registry.Counter.add Obs.best_flips (List.length best_changed_for);
  Sdx_obs.Registry.Gauge.set_int Obs.prefixes (Hashtbl.length t.by_prefix);
  { prefix; best_changed_for }

let apply_burst t updates = List.map (apply t) updates

(* Notification-free bulk load for initial table builds: identical RIB
   mutations to [apply] but without working out which receivers' best
   routes changed.  Nothing compiled exists yet at load time, so there
   is no state the skipped change notifications could have
   invalidated. *)
let load t update =
  require_participant t (Update.peer update);
  mutate_ribs t update;
  Sdx_obs.Registry.Counter.incr Obs.updates;
  Sdx_obs.Registry.Counter.incr
    (match update with
    | Update.Announce _ -> Obs.announces
    | Update.Withdraw _ -> Obs.withdraws);
  Sdx_obs.Registry.Gauge.set_int Obs.prefixes (Hashtbl.length t.by_prefix)

let fold_adj_in t ~via f init =
  require_participant t via;
  Rib.Adj_in.fold f (Hashtbl.find t.adj_in via) init

let fold_announced_overlapping t prefix f init =
  Prefix_trie.fold_overlapping prefix
    (fun p () acc -> f p acc)
    t.prefix_index init

let trivial_route_filter t = t.route_filter == default_route_filter
let route_filter_passes t route ~receiver = t.route_filter route ~receiver

let reachable_prefixes t ~receiver ~via =
  require_participant t via;
  if not (exports_to t ~advertiser:via ~receiver) then []
  else
    let adj = Hashtbl.find t.adj_in via in
    List.rev
      (Rib.Adj_in.fold
         (fun prefix route acc ->
           if loop_free route ~receiver && t.route_filter route ~receiver then
             prefix :: acc
           else acc)
         adj [])

let all_prefixes t =
  List.rev (Prefix_trie.fold (fun p () acc -> p :: acc) t.prefix_index [])

let prefix_count t = Hashtbl.length t.by_prefix

let prefixes_of t asn =
  require_participant t asn;
  Rib.Adj_in.prefixes (Hashtbl.find t.adj_in asn)

let fold_best t ~receiver f init =
  Prefix_trie.fold
    (fun prefix () acc ->
      match best t ~receiver prefix with
      | Some route -> f prefix route acc
      | None -> acc)
    t.prefix_index init

let lookup_best t ~receiver addr =
  (* Most specific first, skipping prefixes with no exported candidate. *)
  let rec go = function
    | [] -> None
    | (prefix, ()) :: rest -> (
        match best t ~receiver prefix with
        | Some route -> Some (prefix, route)
        | None -> go rest)
  in
  go (Prefix_trie.matches addr t.prefix_index)

let filter_prefixes_by_as_path t ~receiver regex =
  List.rev
    (fold_best t ~receiver
       (fun prefix route acc ->
         if As_path_regex.matches regex route then prefix :: acc else acc)
       [])

let filter_prefixes_by_community t ~receiver community =
  List.rev
    (fold_best t ~receiver
       (fun prefix (route : Route.t) acc ->
         if List.mem community route.communities then prefix :: acc else acc)
       [])
