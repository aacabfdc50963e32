
type t = {
  switch : Switch.t;
  table_id : int;
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
  mutable next_buffer : int;
}

let create ?(table = 0) switch =
  {
    switch;
    table_id = table;
    front = [];
    back = [];
    queued = 0;
    applied = 0;
    cookie_of = Table.KeyTbl.create 64;
    cookies = Hashtbl.create 16;
    next_buffer = 1;
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
let table t = Switch.table t.switch t.table_id
let installed t = Table.entries (table t)

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
      Table.apply (table t) (flow_mod_ops t command cookie flow)
  | Message.Barrier_request xid -> queue t (Message.Barrier_reply xid)
  | Message.Echo_request xid -> queue t (Message.Echo_reply xid)
  | Message.Packet_out packet -> ignore (Switch.process t.switch packet)
  | Message.Barrier_reply _ | Message.Echo_reply _ | Message.Packet_in _ ->
      (* switch-to-controller messages are not valid on this side *)
      invalid_arg "Connection.send: not a controller-to-switch message"

let send_all t msgs =
  let pending = ref [] in
  let flush () =
    match !pending with
    | [] -> ()
    | rev_ops ->
        pending := [];
        Table.apply (table t) (List.rev rev_ops)
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
     any earlier messages (packet-ins stay queued for the controller). *)
  match t.back with
  | Message.Barrier_reply x :: rest when x = xid ->
      t.back <- rest;
      t.queued <- t.queued - 1;
      true
  | _ -> false

let process t pkt =
  (* The packet-in decision must not touch hit counters: the real
     (counter-bumping) lookups happen inside [Switch.process], so probing
     with [Table.lookup] here would double-count the winning entry.  The
     RCU snapshot is a pure view of the same table with identical
     first-match semantics. *)
  match Table.snapshot_lookup (Table.snapshot (table t)) pkt with
  | None ->
      let buffer_id = t.next_buffer in
      t.next_buffer <- t.next_buffer + 1;
      queue t (Message.Packet_in { buffer_id; packet = pkt });
      []
  | Some _ -> Switch.process t.switch pkt

(* OpenFlow ADD overwrites on (priority, pattern), so a target listing
   the same slot twice resolves to its last occurrence — the table can
   never hold both, and diffing against the raw multiset would re-add
   the duplicate on every sync, breaking idempotence. *)
let normalize target =
  let seen = Hashtbl.create 64 in
  List.rev
    (List.filter
       (fun (f : Flow.t) ->
         let key = (f.Flow.priority, f.Flow.pattern) in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.replace seen key ();
           true
         end)
       (List.rev target))

let sync t target =
  let target = normalize target in
  (* Multiset diff on whole entries: additions first (make-before-break;
     priorities disambiguate during the transition), then strict deletes
     of the leftovers. *)
  let count_map flows =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun f -> Hashtbl.replace tbl f (1 + Option.value (Hashtbl.find_opt tbl f) ~default:0))
      flows;
    tbl
  in
  let existing = count_map (installed t) in
  let additions =
    List.filter
      (fun f ->
        match Hashtbl.find_opt existing f with
        | Some n when n > 0 ->
            Hashtbl.replace existing f (n - 1);
            false
        | _ -> true)
      target
  in
  (* Whatever count remains in [existing] is surplus — except entries an
     addition overwrites in place (OpenFlow ADD replaces an entry with
     equal priority and match), which need no delete. *)
  let overwritten = Hashtbl.create 16 in
  List.iter
    (fun (f : Flow.t) -> Hashtbl.replace overwritten (f.priority, f.pattern) ())
    additions;
  let removals =
    Hashtbl.fold
      (fun (f : Flow.t) n acc ->
        if n > 0 && not (Hashtbl.mem overwritten (f.priority, f.pattern)) then
          List.init n (fun _ -> f) @ acc
        else acc)
      existing []
  in
  List.iter (fun f -> send t (Message.add f)) additions;
  List.iter (fun f -> send t (Message.delete f)) removals;
  List.length additions + List.length removals
