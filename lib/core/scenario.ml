open Sdx_net
open Sdx_bgp

type error = { line : int; message : string }

let pp_error fmt e =
  Format.fprintf fmt "scenario error on line %d: %s" e.line e.message

exception Err of error

let fail line message = raise (Err { line; message })

type draft = {
  mutable ports : (Mac.t * Ipv4.t) list;  (* reversed *)
  mutable inbound : Ppolicy.t;
  mutable outbound : Ppolicy.t;
  mutable originated : Prefix.t list;
}

type announcement = {
  ann_line : int;
  peer : Asn.t;
  port : int;
  prefix : Prefix.t;
  as_path : Asn.t list option;
}

let parse_asn line s =
  let digits =
    if String.length s > 2 && String.sub s 0 2 = "AS" then
      String.sub s 2 (String.length s - 2)
    else s
  in
  match int_of_string_opt digits with
  | Some n when n >= 0 -> Asn.of_int n
  | _ -> fail line (Printf.sprintf "bad AS number %S" s)

let parse_policy line asn ~known_asns ~port_count text =
  ignore asn;
  match Policy_parser.parse_checked ~known_asns ~port_count text with
  | Ok p -> p
  | Error e ->
      fail line
        (Format.asprintf "in policy: %a" Policy_parser.pp_error e)

(* Split on whitespace, dropping empties. *)
let words s =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim s))

let parse text =
  match
    let drafts : (Asn.t, draft) Hashtbl.t = Hashtbl.create 16 in
    let order : Asn.t list ref = ref [] in
    let announcements : announcement list ref = ref [] in
    let policy_lines : (int * string * Asn.t * string) list ref = ref [] in
    let draft line asn =
      match Hashtbl.find_opt drafts asn with
      | Some d -> d
      | None ->
          fail line
            (Printf.sprintf "unknown participant %s (declare it first)"
               (Asn.to_string asn))
    in
    let handle_line lineno line =
      match words line with
      | [] -> ()
      | hash :: _ when String.length hash > 0 && hash.[0] = '#' -> ()
      | "participant" :: asn_s :: rest ->
          let asn = parse_asn lineno asn_s in
          if Hashtbl.mem drafts asn then
            fail lineno (Printf.sprintf "duplicate participant %s" asn_s);
          let d = { ports = []; inbound = []; outbound = []; originated = [] } in
          let rec ports = function
            | [] -> ()
            | "port" :: mac_s :: ip_s :: rest -> (
                match (Mac.of_string_opt mac_s, Ipv4.of_string_opt ip_s) with
                | Some mac, Some ip -> (
                    match Mac_space.reserved mac with
                    | Some block ->
                        fail lineno
                          (Printf.sprintf "port MAC %s lies in %s" mac_s block)
                    | None ->
                        d.ports <- (mac, ip) :: d.ports;
                        ports rest)
                | None, _ -> fail lineno (Printf.sprintf "bad MAC %S" mac_s)
                | _, None -> fail lineno (Printf.sprintf "bad address %S" ip_s))
            | w :: _ -> fail lineno (Printf.sprintf "unexpected %S" w)
          in
          ports rest;
          d.ports <- List.rev d.ports;
          Hashtbl.replace drafts asn d;
          order := asn :: !order
      | ("inbound" | "outbound") :: asn_s :: _ as all ->
          let kind = List.hd all in
          let asn = parse_asn lineno asn_s in
          ignore (draft lineno asn);
          (* The policy is everything after the second token. *)
          let s = String.trim line in
          let n = String.length s in
          let skip_token i =
            let rec go i = if i < n && s.[i] <> ' ' then go (i + 1) else i in
            go i
          in
          let skip_spaces i =
            let rec go i = if i < n && s.[i] = ' ' then go (i + 1) else i in
            go i
          in
          let start = skip_spaces (skip_token (skip_spaces (skip_token 0))) in
          if start >= n then fail lineno "missing policy text";
          (* Parsed after all participants are declared, so policies may
             reference participants that appear later in the file and
             still get their AS/port references linted. *)
          policy_lines :=
            (lineno, kind, asn, String.sub s start (n - start))
            :: !policy_lines
      | [ "originate"; asn_s; prefix_s ] -> (
          let asn = parse_asn lineno asn_s in
          let d = draft lineno asn in
          match Prefix.of_string_opt prefix_s with
          | Some p -> d.originated <- d.originated @ [ p ]
          | None -> fail lineno (Printf.sprintf "bad prefix %S" prefix_s))
      | "announce" :: asn_s :: port_s :: prefix_s :: rest -> (
          let peer = parse_asn lineno asn_s in
          ignore (draft lineno peer);
          let port =
            match int_of_string_opt port_s with
            | Some p when p >= 0 -> p
            | _ -> fail lineno (Printf.sprintf "bad port index %S" port_s)
          in
          let prefix =
            match Prefix.of_string_opt prefix_s with
            | Some p -> p
            | None -> fail lineno (Printf.sprintf "bad prefix %S" prefix_s)
          in
          let as_path =
            match rest with
            | [] -> None
            | [ "path"; path_s ] ->
                Some
                  (List.map (parse_asn lineno) (String.split_on_char ',' path_s))
            | _ -> fail lineno "expected 'path a,b,c' or nothing"
          in
          announcements :=
            { ann_line = lineno; peer; port; prefix; as_path } :: !announcements)
      | w :: _ -> fail lineno (Printf.sprintf "unknown directive %S" w)
    in
    List.iteri
      (fun i line -> handle_line (i + 1) line)
      (String.split_on_char '\n' text);
    let known_asns = List.rev !order in
    List.iter
      (fun (lineno, kind, asn, text) ->
        let d = draft lineno asn in
        let policy =
          parse_policy lineno asn ~known_asns
            ~port_count:(List.length d.ports) text
        in
        if kind = "inbound" then d.inbound <- d.inbound @ policy
        else d.outbound <- d.outbound @ policy)
      (List.rev !policy_lines);
    let participants =
      List.rev_map
        (fun asn ->
          let d = Hashtbl.find drafts asn in
          Participant.make ~asn ~ports:d.ports ~inbound:d.inbound
            ~outbound:d.outbound ~originated:d.originated ())
        !order
    in
    let config =
      try Config.make participants
      with Invalid_argument msg -> fail 0 msg
    in
    List.iter
      (fun a ->
        try ignore (Config.announce config ~peer:a.peer ~port:a.port ?as_path:a.as_path a.prefix)
        with Invalid_argument msg -> fail a.ann_line msg)
      (List.rev !announcements);
    config
  with
  | config -> Ok config
  | exception Err e -> Error e

let load path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse text

let load_exn path =
  match load path with
  | Ok config -> config
  | Error e -> invalid_arg (Format.asprintf "Scenario.load_exn: %a" pp_error e)

(* ------------------------------------------------------------------ *)
(* Serialization back to scenario syntax.                              *)

let to_string config =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# generated SDX scenario";
  List.iter
    (fun (p : Participant.t) ->
      line "participant AS%d%s" (Asn.to_int p.asn)
        (String.concat ""
           (List.map
              (fun (port : Participant.port) ->
                Printf.sprintf " port %s %s" (Mac.to_string port.mac)
                  (Ipv4.to_string port.ip))
              p.ports)))
    (Config.participants config);
  List.iter
    (fun (p : Participant.t) ->
      List.iter
        (fun prefix -> line "originate AS%d %s" (Asn.to_int p.asn) (Prefix.to_string prefix))
        p.originated;
      if p.inbound <> [] then
        line "inbound AS%d %s" (Asn.to_int p.asn) (Policy_parser.print p.inbound);
      if p.outbound <> [] then
        line "outbound AS%d %s" (Asn.to_int p.asn) (Policy_parser.print p.outbound))
    (Config.participants config);
  let server = Config.server config in
  List.iter
    (fun prefix ->
      List.iter
        (fun (r : Route.t) ->
          (* Routes whose next hop is no participant port are the
             SDX-originated placeholders, already covered above. *)
          match Config.port_of_next_hop config r.next_hop with
          | None -> ()
          | Some (_, port, _) ->
              line "announce AS%d %d %s path %s"
                (Asn.to_int r.learned_from)
                port.Participant.index (Prefix.to_string prefix)
                (String.concat ","
                   (List.map (fun a -> string_of_int (Asn.to_int a)) r.as_path)))
        (Route_server.candidates server prefix))
    (Route_server.all_prefixes server);
  Buffer.contents buf

let save config path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string config))
