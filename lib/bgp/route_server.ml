open Sdx_net

type t = {
  peers : Asn.t list;
  (* Participant [i] of [peers] is bit [i] of every receiver set. *)
  peer_at : Asn.t array;
  index : (Asn.t, int) Hashtbl.t;
  export : advertiser:Asn.t -> receiver:Asn.t -> bool;
  (* [rows.(i)]: the receivers [peer_at.(i)]'s routes may reach under
     the static export matrix, itself excluded.  Built once by [create]
     and never written again. *)
  rows : Bitset.t array;
  everyone : Bitset.t;
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
  let peer_at = Array.of_list peers in
  let n = Array.length peer_at in
  let index = Hashtbl.create n in
  Array.iteri (fun i p -> Hashtbl.replace index p i) peer_at;
  if Hashtbl.length index <> n then
    invalid_arg "Route_server.create: duplicate participant";
  let rows =
    Array.map
      (fun advertiser ->
        let row = Bitset.create n in
        Array.iteri
          (fun i receiver ->
            if (not (Asn.equal advertiser receiver)) && export ~advertiser ~receiver
            then Bitset.set row i)
          peer_at;
        row)
      peer_at
  in
  {
    peers;
    peer_at;
    index;
    export;
    rows;
    everyone = Bitset.of_list ~width:n (List.init n Fun.id);
    route_filter;
    adj_in;
    by_prefix = Hashtbl.create 4096;
    prefix_index = Prefix_trie.empty;
  }

let participants t = t.peers
let is_participant t asn = Hashtbl.mem t.index asn

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

let no_receivers t = Bitset.create (Array.length t.peer_at)

(* The receivers in [among] that may see [r], as a fresh set: its
   advertiser's export row, minus the participants on its AS path (loop
   prevention), then the route filter member by member unless it is the
   trivial one.  The same receivers as filtering [among] with
   [exported]. *)
let exported_among t (r : Route.t) among =
  let set = Bitset.inter t.rows.(Hashtbl.find t.index r.learned_from) among in
  List.iter
    (fun asn ->
      match Hashtbl.find t.index asn with
      | i -> Bitset.clear set i
      | exception Not_found -> ())
    r.as_path;
  if t.route_filter != default_route_filter then
    Bitset.iter
      (fun i ->
        if not (t.route_filter r ~receiver:t.peer_at.(i)) then Bitset.clear set i)
      (Bitset.copy set);
  set

let offered_to t = function
  | None -> no_receivers t
  | Some r -> exported_among t r t.everyone

(* Walks the ranked list handing each receiver in [among] its first
   exported candidate, skipping [skip]'s route: [f (Some q) group] for
   each candidate [q] that is some receivers' first, in rank order, then
   [f None rest] for the receivers no candidate reaches. *)
let fold_firsts t ?skip ranked among f init =
  let skipped (q : Route.t) =
    match skip with Some s -> Asn.equal q.learned_from s | None -> false
  in
  let rec walk open_ acc = function
    | _ when Bitset.is_empty open_ -> acc
    | [] -> f None open_ acc
    | (q : Route.t) :: rest ->
        if skipped q then walk open_ acc rest
        else
          let got = exported_among t q open_ in
          if Bitset.is_empty got then walk open_ acc rest
          else walk (Bitset.diff open_ got) (f (Some q) got acc) rest
  in
  walk among init ranked

(* The receivers whose best route moved when [peer]'s route went from
   [old_route] to [new_route], a group at a time.  Only [peer]'s route
   changed, so a receiver's best other route is the same before and
   after, and its best moved iff the better of that route and [peer]'s
   offer differs between the two states.  Receivers offered neither
   version, or equal versions, are done at once.  The walk hands every
   other receiver its best other route; within one group, the
   receivers offered the old version only, the new one only, or both
   share every input of that comparison, so each of the three gets one
   verdict. *)
let settle t ~peer ~old_route ~new_route ranked =
  match (old_route, new_route) with
  | Some a, Some b when a == b || Route.equal a b -> no_receivers t
  | _ ->
      let before = offered_to t old_route in
      let after = offered_to t new_route in
      let only_before = Bitset.diff before after in
      let only_after = Bitset.diff after before in
      let both = Bitset.inter before after in
      fold_firsts t ~skip:peer ranked (Bitset.union before after)
        (fun other group moved ->
          let add offered_b offered_a kind moved =
            if
              Bitset.is_empty kind
              || same_route (pick other offered_b) (pick other offered_a)
            then moved
            else Bitset.union moved (Bitset.inter group kind)
          in
          moved
          |> add old_route None only_before
          |> add None new_route only_after
          |> add old_route new_route both)
        (no_receivers t)

let members t set = List.rev (Bitset.fold (fun i acc -> t.peer_at.(i) :: acc) set [])

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
  let best_changed_for =
    members t (settle t ~peer ~old_route ~new_route (ranked t prefix))
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

let fold_best_by_route t prefix ~among f init =
  if Bitset.width among <> Array.length t.peer_at then
    invalid_arg "Route_server.fold_best_by_route: receiver set of another width";
  fold_firsts t (ranked t prefix) among f init

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
