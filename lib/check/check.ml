open Sdx_net
open Sdx_policy
open Sdx_bgp
open Sdx_core
open Sdx_fabric
open Sdx_openflow

type severity = Info | Warning | Error

let severity_label = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let pp_severity ppf s = Format.pp_print_string ppf (severity_label s)

type finding = {
  pass : string;
  code : string;
  severity : severity;
  detail : string;
  rules : int list;
  witness : Packet.t option;
}

type report = {
  findings : finding list;
  rules_checked : int;
  passes_run : string list;
  elapsed_s : float;
}

let all_passes = [ "isolation"; "bgp"; "loops"; "arp"; "lints" ]

module Obs = struct
  open Sdx_obs.Registry

  let checks = counter "sdx_check_total"
  let seconds = histogram "sdx_check_seconds"

  let findings_error =
    counter ~labels:[ ("severity", "error") ] "sdx_check_findings_total"

  let findings_warning =
    counter ~labels:[ ("severity", "warning") ] "sdx_check_findings_total"

  let findings_info =
    counter ~labels:[ ("severity", "info") ] "sdx_check_findings_total"

  let of_severity = function
    | Error -> findings_error
    | Warning -> findings_warning
    | Info -> findings_info

  (* The incremental path gets its own family: its per-call cost is what
     lets the soak harness verify every burst, so it must be observable
     separately from full passes. *)
  let incremental = counter "sdx_check_incremental_total"
  let incremental_seconds = histogram "sdx_check_incremental_seconds"
  let incremental_dirty_rules = gauge "sdx_check_incremental_dirty_rules"
  let incremental_dirty_groups = gauge "sdx_check_incremental_dirty_groups"
end

(* ------------------------------------------------------------------ *)
(* Subjects: the artifact under analysis.                              *)

type subject = {
  config : Config.t;
  compiled : Compile.t;
  rules : (Classifier.rule * Compile.provenance) array;
  bands : (int * int) list;  (* fast-path (floor, rule count), oldest first *)
  base_rules : int;
  fastpath : bool;
      (* the subject came from a live runtime, whose fast-path machinery
         will install blocks in the [Runtime.extras_floor] band — a base
         classifier reaching that band is then a hard layout violation.
         A bare compile has no priority assignment yet, so the same
         overlap is advisory. *)
  attribution_gap : int;  (* rules the provenance blocks fail to cover *)
  groups : (int, Compile.group) Hashtbl.t Lazy.t;  (* by id *)
  originators : (Prefix.t, Participant.t) Hashtbl.t Lazy.t;
}

(* Expand block-level provenance into a per-rule attribution. *)
let attribute classifier provs =
  let arr =
    Array.of_list
      (List.map (fun r -> (r, Compile.Unattributed)) classifier)
  in
  let i = ref 0 in
  List.iter
    (fun (p, n) ->
      for k = !i to min (Array.length arr) (!i + n) - 1 do
        let r, _ = arr.(k) in
        arr.(k) <- (r, p)
      done;
      i := !i + n)
    provs;
  (arr, Array.length arr - min (Array.length arr) !i)

(* Each key of the [xs] to the first [x] listing it, as a scan in list
   order finds it. *)
let first_by key xs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun x ->
      List.iter
        (fun k -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k x)
        (key x))
    xs;
  tbl

let groups_by_id compiled =
  lazy
    (first_by
       (fun (g : Compile.group) -> [ g.id ])
       (Compile.all_groups compiled))

let originators config =
  lazy
    (first_by
       (fun (p : Participant.t) -> p.originated)
       (Config.participants config))

let subject_of_compiled compiled config =
  let classifier = Compile.classifier compiled in
  let rules, gap = attribute classifier (Compile.provenance compiled) in
  {
    config;
    compiled;
    rules;
    bands = [];
    base_rules = Classifier.rule_count classifier;
    fastpath = false;
    attribution_gap = gap;
    groups = groups_by_id compiled;
    originators = originators config;
  }

let subject_of_runtime rt =
  let classifier = Runtime.classifier rt in
  let rules, gap = attribute classifier (Runtime.provenance rt) in
  {
    config = Runtime.config rt;
    compiled = Runtime.compiled rt;
    rules;
    bands = Runtime.extras_bands rt;
    base_rules = Runtime.base_rule_count rt;
    fastpath = true;
    attribution_gap = gap;
    groups = groups_by_id (Runtime.compiled rt);
    originators = originators (Runtime.config rt);
  }

let rules subj = Array.to_list subj.rules

let with_rules subj rules =
  { subj with rules = Array.of_list rules; attribution_gap = 0 }

let subject_classifier subj = Array.to_list (Array.map fst subj.rules)

(* ------------------------------------------------------------------ *)
(* Witness packets.                                                    *)

(* A concrete packet inside a pattern: constrained exact fields keep
   their value, prefix fields take their first address, everything else
   takes [Packet.make]'s defaults. *)
let witness_of_pattern (p : Pattern.t) =
  Packet.make ?port:p.port ?src_mac:p.src_mac ?dst_mac:p.dst_mac
    ?eth_type:p.eth_type
    ?src_ip:(Option.map Prefix.first p.src_ip)
    ?dst_ip:(Option.map Prefix.first p.dst_ip)
    ?proto:p.proto ?src_port:p.src_port ?dst_port:p.dst_port ()

(* ------------------------------------------------------------------ *)
(* Shared config lookups.                                              *)

let group_by_id subj id = Hashtbl.find_opt (Lazy.force subj.groups) id

(* Prefixes of [g] still bound to [g] — older fast-path blocks may
   reference groups a later burst superseded; their rules are dead, not
   unsafe. *)
let live_prefixes subj (g : Compile.group) =
  List.filter
    (fun p ->
      match Compile.group_of_prefix subj.compiled p with
      | Some g' -> g'.Compile.id = g.Compile.id
      | None -> false)
    g.Compile.prefixes

let originator_of subj prefix =
  Hashtbl.find_opt (Lazy.force subj.originators) prefix

(* Fabric ports a packet handed to participant [asn] under [clauses] can
   leave on: [asn]'s own ports, its redirect targets' ports, and the
   delivery port of any Default-with-rewrite clause (re-resolved through
   [asn]'s RIB).  Under its inbound clauses, where its inbound pipeline
   delivers; under its outbound ones, where a direct (no-via) outbound
   clause may deliver. *)
let delivery_ports config asn clauses =
  let of_clause (c : Ppolicy.clause) =
    match c.target with
    | Ppolicy.Redirect m -> Config.switch_ports_of config m
    | Ppolicy.Default -> (
        match c.mods.Mods.dst_ip with
        | None -> []
        | Some addr -> (
            match
              Route_server.lookup_best (Config.server config) ~receiver:asn addr
            with
            | None -> []
            | Some (_, route) -> (
                match Config.port_of_next_hop config route.next_hop with
                | None -> []
                | Some (_, _, n) -> [ n ])))
    | Ppolicy.Peer _ | Ppolicy.Phys _ | Ppolicy.Drop -> []
  in
  Config.switch_ports_of config asn @ List.concat_map of_clause clauses

let inbound_delivery_ports config (p : Participant.t) =
  delivery_ports config p.asn p.inbound

let output_ports (r : Classifier.rule) =
  List.filter_map (fun (m : Mods.t) -> m.port) r.action

let mem_port p ports = List.exists (Int.equal p) ports

(* ------------------------------------------------------------------ *)
(* Pass 1: isolation (§4.1, "Isolating participants from one           *)
(* another").                                                          *)

(* Every rule derived from participant A's policy must (a) match only
   packets entering on A's own ports, and (b) deliver only to ports an
   explicit peering, redirect, or default-route resolution justifies.

   Obligations are per-rule and independent, so [only] restricts the
   pass to a dirty subset with findings (indices, details, witnesses)
   identical to what the full pass reports for those rules. *)
let isolation ?(only = fun _ -> true) subj =
  let config = subj.config in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let foreign_witness (pat : Pattern.t) sender_ports =
    (* A packet matching the rule from a port the sender does not own. *)
    let foreign =
      List.find_opt
        (fun (p : Participant.t) ->
          List.exists
            (fun n -> not (mem_port n sender_ports))
            (Config.switch_ports_of config p.asn))
        (Config.participants config)
    in
    let port =
      match foreign with
      | Some p ->
          List.find
            (fun n -> not (mem_port n sender_ports))
            (Config.switch_ports_of config p.asn)
      | None -> 0
    in
    witness_of_pattern { pat with Pattern.port = Some port }
  in
  Array.iteri
    (fun i ((r : Classifier.rule), prov) ->
      if only i then
      match prov with
      | Compile.Outbound { sender; via; group = _ } -> (
          let sender_ports = Config.switch_ports_of config sender in
          (match r.pattern.Pattern.port with
          | None ->
              if sender_ports <> [] then
                add
                  {
                    pass = "isolation";
                    code = "unpinned-policy-rule";
                    severity = Error;
                    detail =
                      Format.asprintf
                        "rule %d from %a's outbound policy is not pinned to \
                         %a's in-ports: traffic from any participant can \
                         trigger it"
                        i Asn.pp sender Asn.pp sender;
                    rules = [ i ];
                    witness = Some (foreign_witness r.pattern sender_ports);
                  }
          | Some p ->
              if not (mem_port p sender_ports) then
                add
                  {
                    pass = "isolation";
                    code = "foreign-ingress";
                    severity = Error;
                    detail =
                      Format.asprintf
                        "rule %d from %a's outbound policy matches in-port \
                         %d, which %a does not own"
                        i Asn.pp sender p Asn.pp sender;
                    rules = [ i ];
                    witness = Some (witness_of_pattern r.pattern);
                  });
          (match via with
          | Some v ->
              let declared =
                List.exists
                  (fun (c : Ppolicy.clause) ->
                    match c.target with
                    | Ppolicy.Peer v' -> Asn.equal v v'
                    | _ -> false)
                  (Config.participant config sender).outbound
              in
              if not declared then
                add
                  {
                    pass = "isolation";
                    code = "unjustified-peering";
                    severity = Error;
                    detail =
                      Format.asprintf
                        "rule %d claims a %a->%a peering, but %a's outbound \
                         policy has no fwd(%a) clause"
                        i Asn.pp sender Asn.pp v Asn.pp sender Asn.pp v;
                    rules = [ i ];
                    witness = Some (witness_of_pattern r.pattern);
                  }
          | None -> ());
          let allowed =
            Compile.blackhole_port
            ::
            (match via with
            | Some v ->
                inbound_delivery_ports config (Config.participant config v)
            | None ->
                delivery_ports config sender
                  (Config.participant config sender).outbound)
          in
          match
            List.find_opt (fun o -> not (mem_port o allowed)) (output_ports r)
          with
          | None -> ()
          | Some o ->
              add
                {
                  pass = "isolation";
                  code = "leaked-egress";
                  severity = Error;
                  detail =
                    Format.asprintf
                      "rule %d from %a's policy (%a) outputs on port %d, \
                       which no peering, redirect, or default route \
                       justifies"
                      i Asn.pp sender Compile.pp_provenance prov o;
                  rules = [ i ];
                  witness = Some (witness_of_pattern r.pattern);
                })
      | Compile.Untagged { owner } -> (
          let macs =
            List.map
              (fun (port : Participant.port) -> port.mac)
              (Config.participant config owner).ports
          in
          (match r.pattern.Pattern.dst_mac with
          | Some m when List.exists (Mac.equal m) macs -> ()
          | _ ->
              add
                {
                  pass = "isolation";
                  code = "untagged-tag-mismatch";
                  severity = Error;
                  detail =
                    Format.asprintf
                      "untagged rule %d for %a does not match one of %a's \
                       interface MACs"
                      i Asn.pp owner Asn.pp owner;
                  rules = [ i ];
                  witness = Some (witness_of_pattern r.pattern);
                });
          let allowed =
            Compile.blackhole_port
            :: inbound_delivery_ports config (Config.participant config owner)
          in
          match
            List.find_opt (fun o -> not (mem_port o allowed)) (output_ports r)
          with
          | None -> ()
          | Some o ->
              add
                {
                  pass = "isolation";
                  code = "leaked-egress";
                  severity = Error;
                  detail =
                    Format.asprintf
                      "untagged rule %d for %a outputs on port %d outside \
                       %a's inbound pipeline"
                      i Asn.pp owner o Asn.pp owner;
                  rules = [ i ];
                  witness = Some (witness_of_pattern r.pattern);
                })
      | Compile.Group_default { group } -> (
          match group_by_id subj group with
          | None ->
              add
                {
                  pass = "isolation";
                  code = "unknown-group";
                  severity = Warning;
                  detail =
                    Format.asprintf
                      "rule %d references prefix group %d, which the \
                       compiler state does not know"
                      i group;
                  rules = [ i ];
                  witness = Some (witness_of_pattern r.pattern);
                }
          | Some g ->
              (match r.pattern.Pattern.dst_mac with
              | Some m when Mac.equal m g.Compile.vmac -> ()
              | _ ->
                  add
                    {
                      pass = "isolation";
                      code = "default-tag-mismatch";
                      severity = Error;
                      detail =
                        Format.asprintf
                          "default rule %d for group %d does not match the \
                           group's VMAC"
                          i group;
                      rules = [ i ];
                      witness = Some (witness_of_pattern r.pattern);
                    });
              let allowed =
                Compile.blackhole_port
                :: List.concat_map
                     (fun (nh_opt, _) ->
                       match nh_opt with
                       | Some nh -> (
                           match Config.port_of_next_hop config nh with
                           | Some (owner, _, _) ->
                               inbound_delivery_ports config owner
                           | None -> [])
                       | None -> (
                           (* Migration can leave a group momentarily
                              memberless without retiring it; an empty
                              group has no originator to deliver to. *)
                           match g.Compile.prefixes with
                           | [] -> []
                           | head :: _ -> (
                               match originator_of subj head with
                               | Some owner ->
                                   inbound_delivery_ports config owner
                               | None -> [])))
                     g.Compile.default_variants
              in
              (match
                 List.find_opt
                   (fun o -> not (mem_port o allowed))
                   (output_ports r)
               with
              | None -> ()
              | Some o ->
                  add
                    {
                      pass = "isolation";
                      code = "leaked-egress";
                      severity = Error;
                      detail =
                        Format.asprintf
                          "default rule %d for group %d outputs on port %d, \
                           which no best route for the group justifies"
                          i group o;
                      rules = [ i ];
                      witness = Some (witness_of_pattern r.pattern);
                    }))
      | Compile.Catch_all ->
          if r.action <> [] then
            add
              {
                pass = "isolation";
                code = "forwarding-catch-all";
                severity = Error;
                detail =
                  Format.asprintf
                    "catch-all rule %d forwards instead of dropping" i;
                rules = [ i ];
                witness = Some (witness_of_pattern r.pattern);
              }
      | Compile.Unattributed -> ())
    subj.rules;
  List.rev !findings

(* The rules as one first-match snapshot: rule [i] of [n] sits at
   priority [n - 1 - i], so a hit's rule index is [n - 1 - priority].
   No live table is built, so the probe sends no flow-mods. *)
let first_match (c : Classifier.t) =
  let n = List.length c in
  let find =
    Table.searcher
      (Table.snapshot_of_flows (Flow.of_classifier ~base_priority:(n - 1) c))
  in
  fun pkt -> Option.map (fun (f : Flow.t) -> n - 1 - f.priority) (find pkt)

(* ------------------------------------------------------------------ *)
(* Pass 2: BGP consistency (§4.1, "Enforcing consistency with BGP      *)
(* advertisements" and "Enforcing default forwarding along best        *)
(* routes").                                                           *)

(* (a) Every rule diverting [sender]'s traffic to [via] must cover only
   prefixes [via] currently announces and the route server exports to
   [sender] — re-checked against the live Loc-RIBs, so withdrawn routes
   turn stale diversions into findings even before the background
   re-optimization runs.  (b) Every default-forwarding rule must deliver
   along a route currently feasible for the emitting participant.

   [only] restricts part (a) to a dirty rule subset; [only_group]
   restricts part (b)'s per-(sender, group) traces to dirty provenance
   groups.  Part (a) obligations are per-rule and part (b) obligations
   per-group, so both filters preserve finding-for-finding agreement
   with the full pass on the restricted sets. *)
let bgp_consistency ?(only = fun _ -> true) ?(only_group = fun _ -> true) subj =
  let config = subj.config in
  let server = Config.server config in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let reach_memo = Hashtbl.create 16 in
  let reachable sender via =
    let key = (sender, via) in
    match Hashtbl.find_opt reach_memo key with
    | Some s -> s
    | None ->
        let s =
          Prefix.Set.of_list
            (Route_server.reachable_prefixes server ~receiver:sender ~via)
        in
        Hashtbl.replace reach_memo key s;
        s
  in
  Array.iteri
    (fun i ((r : Classifier.rule), prov) ->
      if only i then
      match prov with
      | Compile.Outbound { sender; via = Some via; group = Some gid } -> (
          match group_by_id subj gid with
          | None -> ()
          | Some g -> (
              (match r.pattern.Pattern.dst_mac with
              | Some m when Mac.equal m g.Compile.vmac -> ()
              | _ ->
                  add
                    {
                      pass = "bgp";
                      code = "vmac-mismatch";
                      severity = Error;
                      detail =
                        Format.asprintf
                          "rule %d compiled for group %d does not match the \
                           group's VMAC tag"
                          i gid;
                      rules = [ i ];
                      witness = Some (witness_of_pattern r.pattern);
                    });
              let live = live_prefixes subj g in
              let exported = reachable sender via in
              match
                List.find_opt
                  (fun p -> not (Prefix.Set.mem p exported))
                  live
              with
              | None -> ()
              | Some p ->
                  add
                    {
                      pass = "bgp";
                      code = "forward-beyond-export";
                      severity = Error;
                      detail =
                        Format.asprintf
                          "rule %d diverts %a's traffic for %a to %a, but \
                           the route server no longer exports a route for \
                           %a via %a"
                          i Asn.pp sender Prefix.pp p Asn.pp via Prefix.pp p
                          Asn.pp via;
                      rules = [ i ];
                      witness =
                        Some
                          (witness_of_pattern
                             {
                               r.pattern with
                               Pattern.dst_ip = Some p;
                             });
                    }))
      | _ -> ())
    subj.rules;
  (* (b) Trace one representative tagged packet per (sender, live group)
     through the classifier and compare the delivery against the routes
     currently feasible for that sender. *)
  let probe = lazy (first_match (subject_classifier subj)) in
  let groups =
    List.filter_map
      (fun (g : Compile.group) ->
        if not (only_group g.id) then None
        else
          match live_prefixes subj g with
          | [] -> None
          | live -> Some (g, List.hd live))
      (Compile.all_groups subj.compiled)
  in
  List.iter
    (fun (sender : Participant.t) ->
      match Config.switch_ports_of config sender.asn with
      | [] -> ()
      | sport :: _ ->
          List.iter
            (fun ((g : Compile.group), prefix) ->
              let feas = Route_server.feasible server ~receiver:sender.asn prefix in
              let candidates = Route_server.ranked server prefix in
              let origin = originator_of subj prefix in
              (* No feasible route but other candidates remain: export
                 policy or loop prevention hides the prefix from this
                 sender, so the SDX never announces it a VMAC and it
                 cannot legitimately emit the tag — the rule is
                 unreachable for this sender, not unsafe. *)
              if feas = [] && (candidates <> [] || origin <> None) then ()
              else
              let pkt =
                Packet.make ~port:sport ~dst_mac:g.vmac
                  ~dst_ip:(Prefix.first prefix) ()
              in
              match Lazy.force probe pkt with
              | None -> ()
              | Some i -> (
                  let r, prov = subj.rules.(i) in
                  match prov with
                  | Compile.Outbound _ | Compile.Unattributed ->
                      (* A policy diversion; pass (a) and the isolation
                         pass cover it. *)
                      ()
                  | Compile.Catch_all | Compile.Untagged _
                  | Compile.Group_default _ -> (
                      let outs =
                        List.filter
                          (fun o -> o <> Compile.blackhole_port)
                          (output_ports r)
                      in
                      match outs with
                      | [] -> ()
                      | _ ->
                          (* A feasible route whose next hop is no
                             port resolves to the originator, whose
                             ports are allowed anyway. *)
                          let expected =
                            List.concat_map
                              (fun (route : Route.t) ->
                                match
                                  Config.port_of_next_hop config
                                    route.next_hop
                                with
                                | Some (owner, _, _) ->
                                    inbound_delivery_ports config owner
                                | None -> [])
                              feas
                            @ (match origin with
                              | Some owner ->
                                  inbound_delivery_ports config owner
                              | None -> [])
                          in
                          (match
                             List.find_opt
                               (fun o -> not (mem_port o expected))
                               outs
                           with
                          | None -> ()
                          | Some o ->
                              let code, detail =
                                if feas = [] then
                                  ( "stale-default-forward",
                                    Format.asprintf
                                      "default rule %d still forwards %a's \
                                       traffic for %a (port %d), but no \
                                       feasible route remains"
                                      i Asn.pp sender.asn Prefix.pp prefix o )
                                else
                                  ( "default-route-divergence",
                                    Format.asprintf
                                      "default rule %d delivers %a's \
                                       traffic for %a on port %d, which no \
                                       feasible route's next hop justifies"
                                      i Asn.pp sender.asn Prefix.pp prefix o )
                              in
                              add
                                {
                                  pass = "bgp";
                                  code;
                                  severity = Error;
                                  detail;
                                  rules = [ i ];
                                  witness = Some pkt;
                                }))))
            groups)
    (Config.participants config);
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Pass 3: loop freedom (the Prelude failure mode).                    *)

(* Apply a modification to a pattern: fields the modification sets
   become exact constraints (IPs as /32s), everything else is kept. *)
let apply_mods_pattern (m : Mods.t) (p : Pattern.t) =
  let keep v cur = match v with Some x -> Some x | None -> cur in
  {
    Pattern.port = keep m.port p.Pattern.port;
    src_mac = keep m.src_mac p.Pattern.src_mac;
    dst_mac = keep m.dst_mac p.Pattern.dst_mac;
    eth_type = keep m.eth_type p.Pattern.eth_type;
    src_ip =
      (match m.src_ip with
      | Some a -> Some (Prefix.make a 32)
      | None -> p.Pattern.src_ip);
    dst_ip =
      (match m.dst_ip with
      | Some a -> Some (Prefix.make a 32)
      | None -> p.Pattern.dst_ip);
    proto = keep m.proto p.Pattern.proto;
    src_port = keep m.src_port p.Pattern.src_port;
    dst_port = keep m.dst_port p.Pattern.dst_port;
  }

(* (a) Redirect chains: a middlebox delivery re-enters the fabric
   through the host's border router, so its policies apply again.  A
   cycle in the participant-level redirect graph whose clause predicates
   have a common packet is a forwarding loop BGP's loop prevention never
   sees. *)
let redirect_loops config =
  let edges =
    List.concat_map
      (fun (p : Participant.t) ->
        List.filter_map
          (fun (c : Ppolicy.clause) ->
            match c.target with
            | Ppolicy.Redirect m -> Some (p.asn, m, c.pred)
            | _ -> None)
          (p.inbound @ p.outbound))
      (Config.participants config)
  in
  let succs a =
    List.filter (fun (x, _, _) -> Asn.equal x a) edges
  in
  (* Identity patterns of the predicate: the packet sets the clause
     steers. *)
  let pass_patterns pred =
    List.filter_map
      (fun (r : Classifier.rule) ->
        if r.action = [] then None else Some r.pattern)
      (Classifier.compile_pred pred)
  in
  let findings = ref [] in
  let seen_cycles = Hashtbl.create 8 in
  (* [path] is the DFS stack, most recent first. *)
  let rec dfs path pats a =
    List.iter
      (fun (_, target, pred) ->
        let step = pass_patterns pred in
        let pats' =
          List.concat_map
            (fun p -> List.filter_map (fun q -> Pattern.inter p q) step)
            pats
        in
        if List.exists (Asn.equal target) path then begin
          (* Back edge: the cycle is the path suffix down to [target]. *)
          let rec suffix acc = function
            | [] -> acc
            | asn :: rest ->
                if Asn.equal asn target then asn :: acc
                else suffix (asn :: acc) rest
          in
          let cycle = suffix [] path in
          let key =
            String.concat ">"
              (List.sort compare (List.map Asn.to_string cycle))
          in
          begin
            if not (Hashtbl.mem seen_cycles key) then begin
              Hashtbl.replace seen_cycles key ();
              let names =
                String.concat " -> " (List.map Asn.to_string cycle)
              in
              match pats' with
              | wit :: _ ->
                  findings :=
                    {
                      pass = "loops";
                      code = "redirect-cycle";
                      severity = Error;
                      detail =
                        Format.asprintf
                          "middlebox redirect cycle %s: a packet matching \
                           every steering predicate re-enters the chain \
                           forever"
                          names;
                      rules = [];
                      witness = Some (witness_of_pattern wit);
                    }
                    :: !findings
              | [] ->
                  findings :=
                    {
                      pass = "loops";
                      code = "redirect-cycle-unsatisfiable";
                      severity = Info;
                      detail =
                        Format.asprintf
                          "structural redirect cycle %s, but the steering \
                           predicates share no packet"
                          names;
                      rules = [];
                      witness = None;
                    }
                    :: !findings
            end
          end
        end
        else if pats' <> [] && List.length path < 16 then
          dfs (target :: path) pats' target)
      (succs a)
  in
  List.iter
    (fun (p : Participant.t) -> dfs [ p.asn ] [ Pattern.all ] p.asn)
    (Config.participants config);
  List.rev !findings

(* (b) Symbolic reachability over a multi-switch fabric: walk every
   packet set entering on a physical port through the entries each
   switch actually holds (ingress band and version-tagged transit copies
   alike), crossing trunks, and flag any return to an already-visited
   (switch, in-port) with a packet set inside the one seen there — a
   forwarding cycle the spanning-tree construction should make
   impossible.

   A packet set is a pattern minus the patterns of packets taken
   elsewhere: header space subtraction (Kazemian et al., "Header Space
   Analysis", NSDI 2012).  At a switch an entry sees only what no
   higher-priority entry took, so a hit inside one taken pattern is
   skipped and the others stay with the hit as exclusions.  Across a
   hop an exclusion is carried when it agrees with the hit on every
   field the entry writes, as it does whenever the rewrites are
   one-to-one on the hit: the packets outside it then land outside its
   image.  Dropping the others only widens the set, so the walk still
   covers every packet that really travels, and every real loop is
   found. *)
type packet_set = { pat : Pattern.t; minus : Pattern.t list }

let inside p taken = List.exists (Pattern.subset p) taken

(* Every packet of [a] is in [b]. *)
let within a b =
  Pattern.subset a.pat b.pat
  && List.for_all
       (fun e ->
         match Pattern.inter e a.pat with
         | None -> true
         | Some x -> inside x a.minus)
       b.minus

(* [e], inside [hit], agrees with [hit] on every field [m] writes. *)
let carried (m : Mods.t) (hit : Pattern.t) (e : Pattern.t) =
  let same w a b = Option.is_none w || a = b in
  same m.port hit.port e.port
  && same m.src_mac hit.src_mac e.src_mac
  && same m.dst_mac hit.dst_mac e.dst_mac
  && same m.eth_type hit.eth_type e.eth_type
  && same m.src_ip hit.src_ip e.src_ip
  && same m.dst_ip hit.dst_ip e.dst_ip
  && same m.proto hit.proto e.proto
  && same m.src_port hit.src_port e.src_port
  && same m.dst_port hit.dst_port e.dst_port

module State_tbl = Hashtbl.Make (struct
  type t = int * packet_set

  let equal (s, a) (s', b) =
    s = s'
    && Pattern.equal a.pat b.pat
    && List.equal Pattern.equal a.minus b.minus

  let hash (s, a) = Hashtbl.hash (s, Pattern.hash a.pat)
end)

let find_list tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:[]

let fabric_loops ?(max_states = 20_000) fab =
  let topo = Fabric.topo fab in
  let tables = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace tables s
        (Table.entries (Switch.table (Fabric.switch fab s) 0)))
    (Fabric.switches fab);
  (* The entries of switch [s] a packet set can hit: for a set pinning a
     destination MAC, those pinning that MAC or none. *)
  let slices = Hashtbl.create 64 in
  let candidates s (pat : Pattern.t) =
    let all = find_list tables s in
    match pat.dst_mac with
    | None -> all
    | Some m -> (
        match Hashtbl.find_opt slices (s, m) with
        | Some slice -> slice
        | None ->
            let slice =
              List.filter
                (fun (r : Flow.t) ->
                  Option.fold ~none:true ~some:(Mac.equal m) r.pattern.dst_mac)
                all
            in
            Hashtbl.replace slices (s, m) slice;
            slice)
  in
  let findings = ref [] in
  let add code detail witness =
    findings :=
      {
        pass = "loops";
        code;
        severity = Error;
        detail;
        rules = [];
        witness = Some (witness_of_pattern witness);
      }
      :: !findings
  in
  let truncated = ref false in
  let budget = ref max_states in
  let explored = State_tbl.create 1024 in
  let hop_bound = 4 * Topology.switch_count topo in
  let rec walk path s set =
    if State_tbl.mem explored (s, set) then ()
    else if !budget <= 0 then truncated := true
    else begin
      decr budget;
      State_tbl.replace explored (s, set) ();
      (* What the set excludes and higher-priority entries took, by the
         destination MAC it pins: a hit pinning a MAC meets only those
         pinning the same MAC or none. *)
      let taken = Hashtbl.create 16 in
      let take (p : Pattern.t) =
        Hashtbl.replace taken p.dst_mac (p :: find_list taken p.dst_mac)
      in
      let relevant (hit : Pattern.t) =
        match hit.dst_mac with
        | Some _ -> find_list taken hit.dst_mac @ find_list taken None
        | None -> Hashtbl.fold (fun _ l acc -> l @ acc) taken []
      in
      List.iter take set.minus;
      List.iter
        (fun (r : Flow.t) ->
          match Pattern.inter set.pat r.pattern with
          | None -> ()
          | Some hit ->
              let others = relevant hit in
              if not (inside hit others) then begin
                let minus = List.filter_map (Pattern.inter hit) others in
                take hit;
                List.iter (step path s hit minus) r.actions
              end)
        (candidates s set.pat)
    end
  and step path s hit minus (m : Mods.t) =
    match m.port with
    | None -> ()
    | Some o when o = Compile.blackhole_port -> ()
    | Some o -> (
        match Topology.trunk_destination topo o with
        | None -> ()  (* leaves on a physical port *)
        | Some (owner, neighbor) when owner = s -> (
            let inp =
              Topology.trunk_port topo ~from:neighbor ~toward_neighbor:s
            in
            let moved p =
              { (apply_mods_pattern m p) with Pattern.port = Some inp }
            in
            let set' =
              {
                pat = moved hit;
                minus =
                  List.sort_uniq Pattern.compare
                    (List.map moved (List.filter (carried m hit) minus));
              }
            in
            if
              List.exists
                (fun ((sw, ip), q) ->
                  sw = neighbor && ip = inp && within set' q)
                path
            then
              add "fabric-cycle"
                (Format.asprintf
                   "forwarding cycle: packets re-enter switch %d on trunk \
                    port %d after %d hops"
                   neighbor inp (List.length path))
                set'.pat
            else if List.length path >= hop_bound then
              add "hop-bound-exceeded"
                (Format.asprintf
                   "packet set wandered %d trunk hops without leaving the \
                    fabric"
                   hop_bound)
                set'.pat
            else walk (((neighbor, inp), set') :: path) neighbor set')
        | Some _ ->
            add "foreign-trunk-output"
              (Format.asprintf
                 "switch %d outputs on trunk port %d, which belongs to \
                  another switch"
                 s o)
              hit)
  in
  List.iter
    (fun (port, s) ->
      let set = { pat = Pattern.make ~port (); minus = [] } in
      walk [ ((s, port), set) ] s set)
    (Topology.physical_ports topo);
  let fs = List.rev !findings in
  if !truncated then
    fs
    @ [
        {
          pass = "loops";
          code = "loop-check-truncated";
          severity = Info;
          detail =
            Format.asprintf
              "symbolic walk stopped after %d states; coverage is partial"
              max_states;
          rules = [];
          witness = None;
        };
      ]
  else fs

let loops ?fabric subj =
  redirect_loops subj.config
  @ match fabric with None -> [] | Some f -> fabric_loops f

(* ------------------------------------------------------------------ *)
(* Pass 4: ARP consistency.                                            *)

(* The responder's table must agree exactly with the live binding
   universe: every participant port and every active (non-retired) group
   resolves, and nothing else does.  A missing or stale VNH binding
   blackholes announced traffic (the border router cannot resolve the
   next hop the SDX advertised); an orphaned one means a retired VNH
   still answers — the §4.3.2 fast path re-binds VNHs on every burst, so
   a leak here grows without bound under churn. *)
let arp_consistency subj =
  let config = subj.config in
  let expected =
    List.concat_map
      (fun (p : Participant.t) ->
        List.map
          (fun (port : Participant.port) -> (port.Participant.ip, port.Participant.mac))
          p.ports)
      (Config.participants config)
    @ List.map
        (fun (g : Compile.group) -> (g.Compile.vnh, g.Compile.vmac))
        (Compile.active_groups subj.compiled)
  in
  List.map
    (fun drift ->
      let code, detail =
        match drift with
        | Sdx_arp.Responder.Missing (ip, mac) ->
            ( "arp-binding-missing",
              Format.asprintf
                "no ARP binding for %a (expected %a): announced traffic \
                 toward this next hop cannot resolve"
                Ipv4.pp ip Mac.pp mac )
        | Sdx_arp.Responder.Stale (ip, expected, actual) ->
            ( "arp-binding-stale",
              Format.asprintf
                "ARP answers %a with %a, but the live binding is %a"
                Ipv4.pp ip Mac.pp actual Mac.pp expected )
        | Sdx_arp.Responder.Orphaned (ip, mac) ->
            ( "orphaned-arp-binding",
              Format.asprintf
                "ARP still answers %a with %a, but no live group or port \
                 owns that address (a retired VNH was not unregistered)"
                Ipv4.pp ip Mac.pp mac )
      in
      {
        pass = "arp";
        code;
        severity = Error;
        detail;
        rules = [];
        witness = None;
      })
    (Sdx_arp.Responder.diff (Compile.arp subj.compiled) ~expected)

(* ------------------------------------------------------------------ *)
(* Pass 5: classifier lints.                                           *)

let max_shadow_findings = 50

(* [deep:false] (the incremental mode) keeps the cheap global
   obligations — provenance coverage and the priority-band layout, both
   burst-affected — and skips the O(n^2) shadow scan and the stage-1
   tagging sweep, which depend on the whole ruleset and are re-verified
   by the periodic full checkpoints. *)
let lints ?(deep = true) subj =
  let config = subj.config in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  if subj.attribution_gap > 0 then
    add
      {
        pass = "lints";
        code = "provenance-gap";
        severity = Error;
        detail =
          Format.asprintf
            "%d trailing rules are not covered by any provenance block"
            subj.attribution_gap;
        rules = [];
        witness = None;
      };
  if deep then begin
  (* Shadowed / unreachable rules. *)
  let classifier = subject_classifier subj in
  let pairs = Classifier.shadows classifier in
  let shown = ref 0 in
  List.iter
    (fun (i, j) ->
      if !shown < max_shadow_findings then begin
        incr shown;
        let ri = fst subj.rules.(i) and rj = fst subj.rules.(j) in
        let same = ri.Classifier.action = rj.Classifier.action in
        add
          {
            pass = "lints";
            code = (if same then "redundant-rule" else "shadowed-rule");
            severity = (if same then Info else Warning);
            detail =
              Format.asprintf
                "rule %d (%a) can never match: rule %d (%a) covers every \
                 packet it does%s"
                i Compile.pp_provenance (snd subj.rules.(i)) j
                Compile.pp_provenance (snd subj.rules.(j))
                (if same then " with the same action" else "");
            rules = [ i; j ];
            witness = Some (witness_of_pattern ri.Classifier.pattern);
          }
      end)
    pairs;
  (match List.length pairs with
  | n when n > max_shadow_findings ->
      add
        {
          pass = "lints";
          code = "shadowed-rules-elided";
          severity = Info;
          detail =
            Format.asprintf "%d further shadowed rules not listed"
              (n - max_shadow_findings);
          rules = [];
          witness = None;
        }
  | _ -> ());
  (* Stage-1 / stage-2 VMAC agreement for the Figure 2 two-table
     variant: every VMAC the in-switch tagging table writes must have a
     handler in the policy classifier, or announced traffic blackholes
     between the stages. *)
  let tagging = Compile.in_switch_tagging_table subj.compiled config in
  let handled_macs =
    let tbl = Hashtbl.create 64 in
    Array.iter
      (fun ((r : Classifier.rule), _) ->
        match r.pattern.Pattern.dst_mac with
        | Some m -> Hashtbl.replace tbl m ()
        | None -> ())
      subj.rules;
    tbl
  in
  let vmacs =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (g : Compile.group) -> Hashtbl.replace tbl g.vmac ())
      (Compile.all_groups subj.compiled);
    tbl
  in
  List.iter
    (fun (r : Classifier.rule) ->
      List.iter
        (fun (m : Mods.t) ->
          match m.dst_mac with
          | None -> ()
          | Some mac ->
              if not (Hashtbl.mem handled_macs mac) then
                let is_vmac = Hashtbl.mem vmacs mac in
                add
                  {
                    pass = "lints";
                    code =
                      (if is_vmac then "stage1-tag-unhandled"
                       else "stage1-unknown-mac");
                    severity = (if is_vmac then Error else Warning);
                    detail =
                      Format.asprintf
                        "stage-1 tagging rule writes %a, but no stage-2 \
                         rule matches that destination MAC%s"
                        Mac.pp mac
                        (if is_vmac then " (announced traffic blackholes)"
                         else "");
                    rules = [];
                    witness = Some (witness_of_pattern r.pattern);
                  })
        r.action)
    tagging
  end;
  (* Priority-band layout: the base classifier must stay below the
     fast-path floor, and stacked blocks below the ceiling. *)
  let base_top = max Runtime.base_priority_top subj.base_rules in
  if base_top >= Runtime.extras_floor then
    add
      {
        pass = "lints";
        code = "priority-band-overlap";
        (* In a live runtime the extras band is real machinery the base
           table must stay clear of; a bare compile has no installed
           priorities yet, so the overflow is a capacity advisory. *)
        severity = (if subj.fastpath then Error else Warning);
        detail =
          Format.asprintf
            "base classifier (%d rules) reaches priority %d, overlapping \
             the fast-path band at %d%s"
            subj.base_rules base_top Runtime.extras_floor
            (if subj.fastpath then ""
             else " (standalone compile: advisory — installing it under a \
                   runtime would require a larger band layout)");
        rules = [];
        witness = None;
      };
  let rec check_bands = function
    | (floor, count) :: rest ->
        if floor + count > Runtime.extras_ceiling then
          add
            {
              pass = "lints";
              code = "priority-ceiling-exceeded";
              severity = Error;
              detail =
                Format.asprintf
                  "fast-path block at floor %d (%d rules) crosses the \
                   ceiling %d"
                  floor count Runtime.extras_ceiling;
              rules = [];
              witness = None;
            };
        (match rest with
        | (floor', _) :: _ when floor' < floor + count ->
            add
              {
                pass = "lints";
                code = "priority-band-overlap";
                severity = Error;
                detail =
                  Format.asprintf
                    "fast-path blocks overlap: floor %d begins below %d"
                    floor' (floor + count);
                rules = [];
                witness = None;
              }
        | _ -> ());
        check_bands rest
    | [] -> ()
  in
  check_bands subj.bands;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)

let run ?fabric ?(passes = all_passes) subj =
  let t0 = Unix.gettimeofday () in
  let wants p = List.mem p passes in
  let findings =
    (if wants "isolation" then isolation subj else [])
    @ (if wants "bgp" then bgp_consistency subj else [])
    @ (if wants "loops" then loops ?fabric subj else [])
    @ (if wants "arp" then arp_consistency subj else [])
    @ if wants "lints" then lints subj else []
  in
  let findings =
    List.filter (fun f -> wants f.pass) findings
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Sdx_obs.Registry.Counter.incr Obs.checks;
  Sdx_obs.Registry.Histogram.observe Obs.seconds elapsed;
  List.iter
    (fun f -> Sdx_obs.Registry.Counter.incr (Obs.of_severity f.severity))
    findings;
  Sdx_obs.Trace.record ~name:"check" ~start_s:t0 ~dur_s:elapsed
    ~attrs:
      [
        ("rules", string_of_int (Array.length subj.rules));
        ("findings", string_of_int (List.length findings));
        ( "errors",
          string_of_int
            (List.length (List.filter (fun f -> f.severity = Error) findings))
        );
      ]
    ();
  {
    findings;
    rules_checked = Array.length subj.rules;
    passes_run = List.filter wants all_passes;
    elapsed_s = elapsed;
  }

let runtime ?fabric ?passes rt = run ?fabric ?passes (subject_of_runtime rt)

let compiled ?passes c config = run ?passes (subject_of_compiled c config)

(* ------------------------------------------------------------------ *)
(* Incremental driver: re-verify only the obligations a burst touched.  *)

let incremental_passes = [ "isolation"; "bgp"; "arp"; "lints" ]

(* The dirty-set protocol (see DESIGN.md): isolation and BGP part (a)
   are per-rule obligations, filtered to the dirty rule indices; BGP
   part (b) is per-(sender, group), filtered to the dirty provenance
   groups; the ARP pass is global but cheap and burst-affected, so it
   always runs in full; lints run shallow (band layout + provenance
   coverage).  The loop pass is skipped entirely: its obligations derive
   from policies and the fabric topology, which BGP bursts never touch —
   policy changes go through [Runtime.set_policies]' full recompile,
   which resets the dirty-set and forces a full check.  RIB-induced staleness of rules
   the burst did NOT touch (e.g. a withdrawal invalidating an old
   block's diversion) is caught by the periodic full checkpoints, not
   here. *)
let run_incremental ?(passes = incremental_passes) ~dirty:(d : Runtime.dirty)
    subj =
  let t0 = Unix.gettimeofday () in
  let wants p = List.mem p passes in
  let n = Array.length subj.rules in
  let rule_set = Hashtbl.create (List.length d.dirty_rules) in
  List.iter
    (fun i -> if i >= 0 && i < n then Hashtbl.replace rule_set i ())
    d.Runtime.dirty_rules;
  let group_set = Hashtbl.create (List.length d.dirty_groups) in
  List.iter (fun g -> Hashtbl.replace group_set g ()) d.Runtime.dirty_groups;
  let only i = Hashtbl.mem rule_set i in
  let only_group g = Hashtbl.mem group_set g in
  let findings =
    (if wants "isolation" then isolation ~only subj else [])
    @ (if wants "bgp" then bgp_consistency ~only ~only_group subj else [])
    @ (if wants "arp" then arp_consistency subj else [])
    @ if wants "lints" then lints ~deep:false subj else []
  in
  let findings = List.filter (fun f -> wants f.pass) findings in
  let elapsed = Unix.gettimeofday () -. t0 in
  Sdx_obs.Registry.Counter.incr Obs.incremental;
  Sdx_obs.Registry.Histogram.observe Obs.incremental_seconds elapsed;
  Sdx_obs.Registry.Gauge.set_int Obs.incremental_dirty_rules
    (Hashtbl.length rule_set);
  Sdx_obs.Registry.Gauge.set_int Obs.incremental_dirty_groups
    (Hashtbl.length group_set);
  List.iter
    (fun f -> Sdx_obs.Registry.Counter.incr (Obs.of_severity f.severity))
    findings;
  Sdx_obs.Trace.record ~name:"check_incremental" ~start_s:t0 ~dur_s:elapsed
    ~attrs:
      [
        ("dirty_rules", string_of_int (Hashtbl.length rule_set));
        ("dirty_groups", string_of_int (Hashtbl.length group_set));
        ("findings", string_of_int (List.length findings));
      ]
    ();
  {
    findings;
    rules_checked = Hashtbl.length rule_set;
    passes_run = List.filter wants incremental_passes;
    elapsed_s = elapsed;
  }

(* Per-burst entry point: incremental over the runtime's accumulated
   dirty-set when one is available, a full pass when the table was
   rebuilt since the last consume.  Either way the runtime's current
   state counts as verified afterwards ([Runtime.consume_dirty]). *)
let runtime_incremental rt =
  match Runtime.consume_dirty rt with
  | Some dirty -> run_incremental ~dirty (subject_of_runtime rt)
  | None -> runtime rt

(* ------------------------------------------------------------------ *)
(* Live-network lints: dynamic counters the static passes cannot see.  *)

let network_lints net =
  let fab = Network.fabric net in
  let counter_findings =
    List.filter_map
      (fun f -> f)
      [
        (match Network.steering_drops net with
        | 0 -> None
        | n ->
            Some
              {
                pass = "lints";
                code = "steering-chain-drops";
                severity = Warning;
                detail =
                  Printf.sprintf
                    "%d packet(s) silently dropped at the middlebox \
                     steering-chain depth bound — a steering loop or an \
                     over-long function chain"
                    n;
                rules = [];
                witness = None;
              });
        (match Fabric.mixed_version_packets fab with
        | 0 -> None
        | n ->
            Some
              {
                pass = "lints";
                code = "mixed-version-packets";
                severity = Error;
                detail =
                  Printf.sprintf
                    "%d packet(s) crossed a mixed ruleset (version tag \
                     with no transit rule, tag falling through to the \
                     ingress band, one destination tagged with both \
                     parities on one delivery tree, or a tag leaking out \
                     of a delivered frame) — the \
                     two-phase update invariant is broken"
                    n;
                rules = [];
                witness = None;
              });
        (match Fabric.transit_misses fab with
        | 0 -> None
        | n ->
            Some
              {
                pass = "lints";
                code = "transit-miss";
                severity = Error;
                detail =
                  Printf.sprintf
                    "%d tagged frame(s) found no transit rule at some \
                     switch — an edge stamped a destination's version \
                     before that version's transit rules existed \
                     everywhere, or after they were collected"
                    n;
                rules = [];
                witness = None;
              });
      ]
  in
  (* The loop pass over the live sharded tables rides along: version
     tags move loop freedom from the policy layer to the installed
     per-switch rules, so walk what is actually installed. *)
  counter_findings @ fabric_loops fab

let errors r = List.filter (fun f -> f.severity = Error) r.findings
let warnings r = List.filter (fun f -> f.severity = Warning) r.findings
let has_errors r = errors r <> []

let count sev r =
  List.length (List.filter (fun f -> f.severity = sev) r.findings)

let summary r =
  Format.asprintf "%d rules checked, %d errors, %d warnings, %d info (%.1f ms)"
    r.rules_checked (count Error r) (count Warning r) (count Info r)
    (r.elapsed_s *. 1000.)

let pp_finding ppf f =
  Format.fprintf ppf "@[<v 2>[%a] %s/%s: %s" pp_severity f.severity f.pass
    f.code f.detail;
  (match f.rules with
  | [] -> ()
  | rs ->
      Format.fprintf ppf "@,rules: %s"
        (String.concat ", " (List.map string_of_int rs)));
  (match f.witness with
  | Some w -> Format.fprintf ppf "@,witness: %a" Packet.pp w
  | None -> ());
  Format.fprintf ppf "@]"

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter (fun f -> Format.fprintf ppf "%a@," pp_finding f) r.findings;
  Format.fprintf ppf "%s@]" (summary r)

exception Violation of report

let install_runtime_hook ?(fail = false) () =
  Runtime.set_check_hook
    (Some
       (fun rt ->
         let r = runtime rt in
         if has_errors r then
           if fail then raise (Violation r)
           else
             Format.eprintf "sdx_check: %a@." pp_report r))

let uninstall_runtime_hook () = Runtime.set_check_hook None
