(* Shared helpers: clocks, order statistics, GC and memory probes, and
   the tiny JSON printer the result line needs. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks (the same definition as
   Python's [statistics.quantiles(..., method="inclusive")]). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = quantile (sorted_of_list xs) 0.5

let sum xs = List.fold_left ( +. ) 0.0 xs

(* The same samples from several replays of identical work, each list in
   the same order: every unit of work at its best (shortest) replay. *)
let best_of = function
  | [] -> []
  | first :: rest -> List.fold_left (List.map2 Float.min) first rest

(* Eight wall times of a fixed CPU-bound loop (about 1 ms on a 2-core
   host), recorded with every result as a probe of how fast the host
   ran. *)
let probe_host () =
  let a = Array.init 4096 (fun i -> i) in
  List.init 8 (fun _ ->
      let t0 = now () in
      let s = ref 0 in
      for _ = 1 to 150 do
        for i = 0 to 4095 do
          s := !s + (a.(i) * 3) + (i land 7)
        done
      done;
      ignore (Sys.opaque_identity !s);
      now () -. t0)

(* Peak resident set size of this process, from the kernel's VmHWM. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Result lines                                                        *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let result_line ~correct ~attempted ~failed metrics =
  json_object
    [
      ("correct", if correct then "true" else "false");
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        json_object
          (List.map
             (fun m ->
               ( m.name,
                 json_object
                   [ ("value", json_number m.value); ("unit", json_string m.unit_) ] ))
             metrics) );
    ]
