type t = {
  table : Table.t;
  (* Switch-to-controller queue as a two-list FIFO: [front] holds the
     oldest messages in arrival order, [back] the newest in reverse.
     [queue] and [recv] are O(1) amortized — each message is moved from
     [back] to [front] exactly once — where a single reversed list made
     every [recv] reverse the whole queue twice (O(n²) to drain). *)
  mutable front : Message.t list;
  mutable back : Message.t list;
  mutable queued : int;
  mutable applied : int;
  (* Cookie bookkeeping, keyed like the table's entries: an ADD that
     overwrites a slot re-files it under the new cookie, and a strict
     delete unfiles it whatever actions the request carries. *)
  cookie_of : int Table.KeyTbl.t;  (* slot -> its nonzero cookie *)
  cookies : (int, unit Table.KeyTbl.t) Hashtbl.t;  (* cookie -> its slots *)
}

let create switch =
  {
    table = Switch.table switch 0;
    front = [];
    back = [];
    queued = 0;
    applied = 0;
    cookie_of = Table.KeyTbl.create 64;
    cookies = Hashtbl.create 16;
  }

let queue t msg =
  t.back <- msg :: t.back;
  t.queued <- t.queued + 1

let recv t =
  (match t.front with
  | [] ->
      t.front <- List.rev t.back;
      t.back <- []
  | _ :: _ -> ());
  match t.front with
  | [] -> None
  | msg :: rest ->
      t.front <- rest;
      t.queued <- t.queued - 1;
      Some msg

let pending t = t.queued
let flow_mods_applied t = t.applied
let installed t = Table.entries t.table

let unfile t slot =
  match Table.KeyTbl.find_opt t.cookie_of slot with
  | None -> ()
  | Some cookie -> (
      Table.KeyTbl.remove t.cookie_of slot;
      match Hashtbl.find_opt t.cookies cookie with
      | Some slots ->
          Table.KeyTbl.remove slots slot;
          if Table.KeyTbl.length slots = 0 then Hashtbl.remove t.cookies cookie
      | None -> ())

let file t cookie slot =
  unfile t slot;
  if cookie <> 0 then begin
    Table.KeyTbl.replace t.cookie_of slot cookie;
    let slots =
      match Hashtbl.find_opt t.cookies cookie with
      | Some slots -> slots
      | None ->
          let slots = Table.KeyTbl.create 8 in
          Hashtbl.replace t.cookies cookie slots;
          slots
    in
    Table.KeyTbl.replace slots slot ()
  end

(* The table ops one flow-mod stands for, with the cookie bookkeeping
   and the flow-mod count brought up to date. *)
let flow_mod_ops t command cookie (flow : Flow.t) =
  let slot = (flow.Flow.priority, flow.Flow.pattern) in
  match command with
  | Message.Add ->
      file t cookie slot;
      t.applied <- t.applied + 1;
      [ Table.Install flow ]
  | Message.Delete_strict ->
      unfile t slot;
      t.applied <- t.applied + 1;
      [ Table.Remove slot ]
  | Message.Delete_by_cookie -> (
      match Hashtbl.find_opt t.cookies cookie with
      | None -> []
      | Some slots ->
          Hashtbl.remove t.cookies cookie;
          Table.KeyTbl.fold
            (fun slot () ops ->
              Table.KeyTbl.remove t.cookie_of slot;
              t.applied <- t.applied + 1;
              Table.Remove slot :: ops)
            slots [])

let send t (msg : Message.t) =
  match msg with
  | Message.Flow_mod { command; cookie; flow } ->
      Table.apply t.table (flow_mod_ops t command cookie flow)
  | Message.Barrier_request xid -> queue t (Message.Barrier_reply xid)
  | Message.Echo_request xid -> queue t (Message.Echo_reply xid)
  | Message.Barrier_reply _ | Message.Echo_reply _ ->
      (* switch-to-controller messages are not valid on this side *)
      invalid_arg "Connection.send: not a controller-to-switch message"

let send_all t msgs =
  let pending = ref [] in
  let flush () =
    match !pending with
    | [] -> ()
    | rev_ops ->
        pending := [];
        Table.apply t.table (List.rev rev_ops)
  in
  List.iter
    (fun (msg : Message.t) ->
      match msg with
      | Message.Flow_mod { command; cookie; flow } ->
          pending := List.rev_append (flow_mod_ops t command cookie flow) !pending
      | _ ->
          flush ();
          send t msg)
    msgs;
  flush ()

let barrier t xid =
  send t (Message.Barrier_request xid);
  (* The in-memory switch answers synchronously: the reply was appended
     at the tail of the queue just now.  Consume it without disturbing
     any earlier messages (echo replies stay queued for the controller). *)
  match t.back with
  | Message.Barrier_reply x :: rest when x = xid ->
      t.back <- rest;
      t.queued <- t.queued - 1;
      true
  | _ -> false
