(* The observability layer: metric primitive correctness (including
   concurrent mutation from multiple domains, since every cell promises
   to be domain-safe), render
   schema sanity, the span ring, and the end-to-end check that a compile
   and a burst actually populate the registry. *)

module Sync = Sdx_sanitize.Sync

open Sdx_obs
open Sdx_ixp

(* [Sdx_ixp] also exports a [Trace] (packet trace generation); we mean
   the span tracer here. *)
module Trace = Sdx_obs.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  nn = 0 || go 0

let check_float_eps msg ~eps expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %g within %g, got %g" msg expected eps actual

(* ------------------------------------------------------------------ *)
(* Counters, gauges.                                                   *)

let test_counter_basics () =
  let r = Registry.create () in
  let c = Registry.counter ~registry:r "c" in
  check_int "fresh" 0 (Registry.Counter.value c);
  Registry.Counter.incr c;
  Registry.Counter.add c 41;
  check_int "incr+add" 42 (Registry.Counter.value c);
  (match Registry.Counter.add c (-1) with
  | () -> Alcotest.fail "negative add must raise"
  | exception Invalid_argument _ -> ());
  (* Same key resolves to the same cell. *)
  Registry.Counter.incr (Registry.counter ~registry:r "c");
  check_int "interned" 43 (Registry.Counter.value c)

let test_gauge_basics () =
  let r = Registry.create () in
  let g = Registry.gauge ~registry:r "g" in
  Registry.Gauge.set g 2.5;
  Registry.Gauge.add g 0.5;
  check_float_eps "set+add" ~eps:1e-12 3.0 (Registry.Gauge.value g);
  Registry.Gauge.set_int g 7;
  check_float_eps "set_int" ~eps:0.0 7.0 (Registry.Gauge.value g)

let test_labels_distinct () =
  let r = Registry.create () in
  let a = Registry.counter ~registry:r ~labels:[ ("asn", "AS100") ] "m" in
  let b = Registry.counter ~registry:r ~labels:[ ("asn", "AS200") ] "m" in
  Registry.Counter.incr a;
  check_int "labeled cells are distinct" 0 (Registry.Counter.value b);
  (* Label order must not matter for identity. *)
  let c1 = Registry.counter ~registry:r ~labels:[ ("x", "1"); ("y", "2") ] "n" in
  let c2 = Registry.counter ~registry:r ~labels:[ ("y", "2"); ("x", "1") ] "n" in
  Registry.Counter.incr c1;
  check_int "label order normalized" 1 (Registry.Counter.value c2)

let test_kind_mismatch () =
  let r = Registry.create () in
  ignore (Registry.counter ~registry:r "m");
  match Registry.gauge ~registry:r "m" with
  | _ -> Alcotest.fail "kind mismatch must raise"
  | exception Invalid_argument _ -> ()

let test_reset_keeps_handles () =
  let r = Registry.create () in
  let c = Registry.counter ~registry:r "c" in
  let h = Registry.histogram ~registry:r "h" in
  Registry.Counter.add c 5;
  Registry.Histogram.observe h 0.5;
  Registry.reset r;
  check_int "counter zeroed" 0 (Registry.Counter.value c);
  check_int "histogram zeroed" 0 (Registry.Histogram.count h);
  Registry.Counter.incr c;
  check_int "handle still live" 1 (Registry.Counter.value c);
  check_int "still registered" 2 (List.length (Registry.samples r))

(* ------------------------------------------------------------------ *)
(* Histograms.                                                         *)

let test_histogram_percentiles () =
  let r = Registry.create () in
  let h = Registry.histogram ~registry:r ~buckets:[| 1.0; 2.0; 4.0; 8.0 |] "h" in
  check_bool "empty percentile is nan" true
    (Float.is_nan (Registry.Histogram.percentile h 0.5));
  List.iter (Registry.Histogram.observe h) [ 0.5; 1.5; 3.0; 6.0 ];
  check_int "count" 4 (Registry.Histogram.count h);
  check_float_eps "sum" ~eps:1e-9 11.0 (Registry.Histogram.sum h);
  (* target rank 2 lands at the top of bucket (1,2]. *)
  check_float_eps "p50" ~eps:1e-9 2.0 (Registry.Histogram.percentile h 0.5);
  (* target rank 3.96: 0.96 into the single-observation bucket (4,8]. *)
  check_float_eps "p99" ~eps:1e-9 7.84 (Registry.Histogram.percentile h 0.99);
  (* Overflow observations clamp to the largest finite bound. *)
  Registry.Histogram.observe h 100.0;
  check_float_eps "overflow clamps" ~eps:1e-9 8.0
    (Registry.Histogram.percentile h 1.0)

let test_histogram_default_buckets () =
  let b = Registry.Histogram.default_buckets in
  check_bool "spans 1us" true (b.(0) <= 1e-6);
  check_bool "spans 10s" true (b.(Array.length b - 1) >= 10.0);
  let sorted = Array.copy b in
  Array.sort Float.compare sorted;
  check_bool "strictly increasing" true (b = sorted)

(* ------------------------------------------------------------------ *)
(* Concurrent mutation from multiple domains.                          *)

let test_concurrent_counter () =
  let r = Registry.create () in
  let c = Registry.counter ~registry:r "c" in
  let per_domain = 25_000 and domains = 4 in
  let spawned =
    List.init domains (fun _ ->
        Sync.Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Registry.Counter.incr c
            done))
  in
  List.iter Sync.Domain.join spawned;
  check_int "no lost increments" (domains * per_domain) (Registry.Counter.value c)

let test_concurrent_histogram_and_gauge () =
  let r = Registry.create () in
  let h = Registry.histogram ~registry:r "h" in
  let g = Registry.gauge ~registry:r "g" in
  let per_domain = 10_000 and domains = 4 in
  let spawned =
    List.init domains (fun _ ->
        Sync.Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Registry.Histogram.observe h 0.0005;
              Registry.Gauge.add g 1.0
            done))
  in
  List.iter Sync.Domain.join spawned;
  let n = domains * per_domain in
  check_int "no lost observations" n (Registry.Histogram.count h);
  (* Every increment is the same value, so the float sums are exact up
     to the deterministic rounding of n equal additions. *)
  check_float_eps "sum" ~eps:1e-6 (float_of_int n *. 0.0005)
    (Registry.Histogram.sum h);
  check_float_eps "gauge CAS add" ~eps:0.0 (float_of_int n) (Registry.Gauge.value g);
  (* All mass sits in the (2.5e-4, 5e-4] bucket, so any percentile
     interpolates inside it. *)
  let p99 = Registry.Histogram.percentile h 0.99 in
  check_bool "p99 in-bucket" true (p99 > 2.5e-4 && p99 <= 5e-4)

let test_concurrent_registration () =
  let r = Registry.create () in
  let spawned =
    List.init 4 (fun d ->
        Sync.Domain.spawn (fun () ->
            for i = 1 to 100 do
              (* Every domain races on the same 100 keys. *)
              Registry.Counter.incr
                (Registry.counter ~registry:r ("m" ^ string_of_int i));
              ignore d
            done))
  in
  List.iter Sync.Domain.join spawned;
  check_int "one cell per key" 100 (List.length (Registry.samples r));
  List.iter
    (fun s ->
      match s.Registry.sample_value with
      | Registry.Counter_v n -> check_int "all increments landed" 4 n
      | _ -> Alcotest.fail "expected a counter")
    (Registry.samples r)

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let test_render () =
  let r = Registry.create () in
  Registry.Counter.add (Registry.counter ~registry:r ~labels:[ ("asn", "AS1") ] "c") 3;
  Registry.Gauge.set (Registry.gauge ~registry:r "g") 1.5;
  Registry.Histogram.observe (Registry.histogram ~registry:r "h") 0.25;
  let text = Format.asprintf "%a" Registry.pp r in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "text contains %s" needle) true
        (contains text needle))
    [ "c{asn=\"AS1\"}"; "g"; "count=1" ];
  let json = Registry.to_json r in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "json contains %s" needle) true
        (contains json needle))
    [
      "{\"metrics\":[";
      "\"name\":\"c\"";
      "\"labels\":{\"asn\":\"AS1\"}";
      "\"type\":\"gauge\"";
      "\"type\":\"histogram\"";
      "\"count\":1";
    ]

(* ------------------------------------------------------------------ *)
(* The span ring.                                                      *)

let test_trace_ring () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.record ~tracer:tr ~name:(string_of_int i) ~start_s:(float_of_int i)
      ~dur_s:0.001
      ~attrs:[ ("i", string_of_int i) ]
      ()
  done;
  check_int "recorded" 6 (Trace.recorded tr);
  check_int "dropped" 2 (Trace.dropped tr);
  Alcotest.(check (list string))
    "oldest-first window" [ "3"; "4"; "5"; "6" ]
    (List.map (fun s -> s.Trace.span_name) (Trace.spans tr));
  let jsonl = Trace.to_jsonl tr in
  check_bool "jsonl has span" true
    (contains jsonl "{\"name\":\"3\",\"start_s\":3.000000");
  check_bool "jsonl has attr" true (contains jsonl "\"i\":\"6\"");
  Trace.reset tr;
  check_int "reset" 0 (Trace.recorded tr);
  check_int "reset spans" 0 (List.length (Trace.spans tr))

(* ------------------------------------------------------------------ *)
(* End to end: a compile run populates the expected metric names.      *)

let default_counter name = Registry.counter name
let counter_value name = Registry.Counter.value (default_counter name)

let test_compile_populates_registry () =
  let compiles0 = counter_value "sdx_compile_total" in
  let bgp0 = counter_value "sdx_bgp_updates_total" in
  let batches0 = counter_value "sdx_compile_batch_total" in
  let bursts0 = counter_value "sdx_runtime_bursts_total" in
  let rng = Rng.create ~seed:7 in
  let w = Workload.build rng ~participants:15 ~prefixes:120 () in
  let runtime = Workload.runtime w in
  check_bool "compile counted" true (counter_value "sdx_compile_total" > compiles0);
  check_bool "bgp updates counted" true (counter_value "sdx_bgp_updates_total" > bgp0);
  (* Drive one best-changing burst through the fast path. *)
  let updates =
    List.init 3 (fun _ -> Workload.random_best_changing_update rng w)
  in
  ignore (Sdx_core.Runtime.handle_burst runtime updates);
  (* Materialize the compiled flows into a switch table so the
     flow-mod/occupancy metrics register and move, as sdxd does. *)
  let table = Sdx_openflow.Table.create () in
  Sdx_openflow.Table.install_all table (Sdx_core.Runtime.flows runtime);
  check_bool "flow mods counted" true
    (counter_value "sdx_openflow_flow_mods_total" > 0);
  check_bool "batch compile counted" true
    (counter_value "sdx_compile_batch_total" > batches0);
  check_bool "burst counted" true
    (counter_value "sdx_runtime_bursts_total" > bursts0);
  let names =
    List.map (fun s -> s.Registry.sample_name) (Registry.samples Registry.default)
  in
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "registry has %s" n) true (List.mem n names))
    [
      "sdx_compile_total";
      "sdx_compile_seconds";
      "sdx_compile_rules";
      "sdx_compile_groups";
      "sdx_compile_seq_ops_total";
      "sdx_compile_memo_hits_total";
      "sdx_compile_batch_total";
      "sdx_compile_batch_seconds";
      "sdx_compile_batch_vnh_total";
      "sdx_runtime_bursts_total";
      "sdx_runtime_updates_total";
      "sdx_runtime_burst_seconds";
      "sdx_runtime_fastpath_blocks";
      "sdx_runtime_extra_rules";
      "sdx_bgp_updates_total";
      "sdx_bgp_best_flips_total";
      "sdx_bgp_prefixes";
      "sdx_bgp_rib_adds_total";
      "sdx_openflow_flow_mods_total";
      "sdx_openflow_table_entries";
      "sdx_fabric_packets_total";
    ];
  (* The compile span landed in the default tracer. *)
  check_bool "compile span traced" true
    (List.exists
       (fun s -> s.Trace.span_name = "compile")
       (Trace.spans Trace.default));
  (* The compile-latency histogram really carries observations. *)
  let h = Registry.histogram "sdx_compile_seconds" in
  check_bool "latency histogram non-empty" true (Registry.Histogram.count h > 0);
  check_bool "p99 is finite" true
    (not (Float.is_nan (Registry.Histogram.percentile h 0.99)))

let test_telemetry_shares_schema () =
  let t = Sdx_fabric.Telemetry.create () in
  let asn = Sdx_bgp.Asn.of_int 64512 in
  let packet = Sdx_net.Packet.make ~src_ip:(Sdx_net.Ipv4.of_string "10.0.0.1")
      ~dst_ip:(Sdx_net.Ipv4.of_string "10.0.0.2") () in
  Sdx_fabric.Telemetry.record t ~src:asn ~packet ~receivers:[ asn ];
  let samples = Sdx_fabric.Telemetry.samples t in
  check_bool "labeled tx sample" true
    (List.exists
       (fun s ->
         s.Registry.sample_name = "sdx_fabric_tx_packets"
         && s.Registry.sample_labels = [ ("asn", Sdx_bgp.Asn.to_string asn) ])
       samples);
  (* The shared renderers accept telemetry samples directly. *)
  check_bool "renders via shared path" true
    (contains
       (Registry.json_of_samples samples)
       "sdx_fabric_pair_packets")

let () =
  Alcotest.run "sdx_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
          Alcotest.test_case "labels distinct" `Quick test_labels_distinct;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "default buckets" `Quick test_histogram_default_buckets;
        ] );
      ( "domains",
        [
          Alcotest.test_case "concurrent counter" `Quick test_concurrent_counter;
          Alcotest.test_case "concurrent histogram+gauge" `Quick
            test_concurrent_histogram_and_gauge;
          Alcotest.test_case "concurrent registration" `Quick
            test_concurrent_registration;
        ] );
      ( "render",
        [ Alcotest.test_case "text and json" `Quick test_render ] );
      ("trace", [ Alcotest.test_case "ring buffer" `Quick test_trace_ring ]);
      ( "integration",
        [
          Alcotest.test_case "compile populates registry" `Quick
            test_compile_populates_registry;
          Alcotest.test_case "telemetry shares schema" `Quick
            test_telemetry_shares_schema;
        ] );
    ]
