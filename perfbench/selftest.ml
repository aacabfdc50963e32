(* Negative controls for the benchmark's own failure accounting, on a
   small exchange.  A clean run must count no delivery, decode,
   mixed-version or checker failure (it does count the known stale next
   hops, see NOTES.md); the same run committing with
   [`Unsafe_single_phase] must count mixed-version probe walks; and with
   one garbled UPDATE it must count a failed delivery and still finish
   every burst.  Exit code 0 iff all three hold. *)

let small = { Sut.participants = 30; prefixes = 600; dense = false }
let seed = 7
let burst_count = 40
let garbled_burst = 3

let garble (m : Updates.msg) =
  let bytes = Bytes.copy m.bytes in
  (* The all-ones marker is the first thing a BGP decoder validates. *)
  Bytes.set bytes 0 '\x00';
  { m with bytes }

let control ?(garbled = false) protocol =
  let sut, _ = Sut.create_repeated ~repeats:1 ~seed small ~snapshot:false ~sessions:true in
  let bursts = Updates.encode sut (Updates.trace_for sut.w ~seed) burst_count in
  if garbled then begin
    let b = bursts.(garbled_burst) in
    let msgs = Array.copy b.msgs in
    msgs.(0) <- garble msgs.(0);
    bursts.(garbled_burst) <- { b with msgs }
  end;
  let probes = Sut.frames sut ~seed:(seed + 1) 64 in
  let l =
    Updates.create_loop
      ~cfg:{ Updates.default_config with protocol }
      ~sp:(Spans.create ~enabled:false) ~probes sut
  in
  Updates.run l bursts ~upto:(Array.length bursts);
  (l.acc, Array.length bursts)

let failures_of (a : Updates.acc) kind =
  Option.value (List.assoc_opt kind a.failures) ~default:0

let controlled =
  [ "deliver_error"; "update_dropped"; "readvert_decode"; "mixed_version_probe"; "check_error" ]

let run () =
  let results =
    [
      (let a, n = control `Two_phase in
       ( "clean two-phase run counts no controlled failure",
         a.bursts = n && List.for_all (fun k -> failures_of a k = 0) controlled,
         a ));
      (let a, n = control `Unsafe_single_phase in
       ( "unsafe single-phase commits register mixed-version probes",
         a.bursts = n && failures_of a "mixed_version_probe" > 0,
         a ));
      (let a, n = control ~garbled:true `Two_phase in
       ( "a garbled UPDATE is a failed delivery and the run goes on",
         a.bursts = n && failures_of a "deliver_error" >= 1,
         a ));
    ]
  in
  List.iter
    (fun (name, ok, (a : Updates.acc)) ->
      Printf.printf "%s  %s  (%d bursts, %d attempted, failures: %s)\n"
        (if ok then "PASS" else "FAIL")
        name a.bursts a.attempted
        (String.concat ", "
           (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) a.failures)))
    results;
  if List.for_all (fun (_, ok, _) -> ok) results then 0 else 1
