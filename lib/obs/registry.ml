(* All synchronization goes through the sanitizer shim: in production
   (Off) mode each wrapper is a passthrough costing one field load and
   branch; under SDX_RACE=1 every operation records happens-before
   edges for the race detector. *)
module Sync = Sdx_sanitize.Sync

(* Atomic float accumulator: OCaml atomics CAS on the boxed value, so a
   retry loop gives a lock-free fetch-and-add.  The loop is the function
   itself rather than a local closure, so an attempt allocates only the
   new box. *)
let rec atomic_add_float (a : float Sync.Atomic.t) x =
  let old = Sync.Atomic.get a in
  if not (Sync.Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

module Counter = struct
  type t = int Sync.Atomic.t

  let make () = Sync.Atomic.make 0
  let incr t = ignore (Sync.Atomic.fetch_and_add t 1)

  let add t n =
    if n < 0 then invalid_arg "Registry.Counter.add: negative delta";
    ignore (Sync.Atomic.fetch_and_add t n)

  let value t = Sync.Atomic.get t
  let reset t = Sync.Atomic.set t 0
end

module Gauge = struct
  type t = float Sync.Atomic.t

  let make () = Sync.Atomic.make 0.0
  let set t x = Sync.Atomic.set t x
  let add t x = atomic_add_float t x
  let set_int t n = Sync.Atomic.set t (float_of_int n)
  let value t = Sync.Atomic.get t
  let reset t = Sync.Atomic.set t 0.0
end

module Histogram = struct
  type t = {
    (* Strictly increasing upper bounds; counts has one extra overflow
       slot for observations above the last bound. *)
    bounds : float array;
    counts : int Sync.Atomic.t array;
    total : int Sync.Atomic.t;
    sum : float Sync.Atomic.t;
  }

  (* {1, 2.5, 5} x 10^k from 1e-6 s up to 10 s. *)
  let default_buckets =
    let mantissas = [ 1.0; 2.5; 5.0 ] in
    let bounds = ref [] in
    for exp = -6 to 0 do
      List.iter
        (fun m -> bounds := (m *. (10.0 ** float_of_int exp)) :: !bounds)
        mantissas
    done;
    Array.of_list (List.rev (10.0 :: !bounds))

  let make buckets =
    let bounds = Array.copy buckets in
    Array.sort Float.compare bounds;
    if Array.length bounds = 0 then invalid_arg "Registry.Histogram: no buckets";
    {
      bounds;
      counts = Array.init (Array.length bounds + 1) (fun _ -> Sync.Atomic.make 0);
      total = Sync.Atomic.make 0;
      sum = Sync.Atomic.make 0.0;
    }

  let bucket_of t x =
    let n = Array.length t.bounds in
    let rec go i = if i >= n then n else if x <= t.bounds.(i) then i else go (i + 1) in
    go 0

  let observe t x =
    ignore (Sync.Atomic.fetch_and_add t.counts.(bucket_of t x) 1);
    ignore (Sync.Atomic.fetch_and_add t.total 1);
    atomic_add_float t.sum x

  let count t = Sync.Atomic.get t.total
  let sum t = Sync.Atomic.get t.sum

  let percentile t q =
    let total = count t in
    if total = 0 then nan
    else
      let target = q *. float_of_int total in
      let n = Array.length t.bounds in
      let rec go i cum =
        if i > n then t.bounds.(n - 1)
        else
          let here = Sync.Atomic.get t.counts.(i) in
          let cum' = cum +. float_of_int here in
          if cum' >= target && here > 0 then
            if i >= n then t.bounds.(n - 1)
            else
              let lo = if i = 0 then 0.0 else t.bounds.(i - 1) in
              let hi = t.bounds.(i) in
              lo +. ((hi -. lo) *. ((target -. cum) /. float_of_int here))
          else go (i + 1) cum'
      in
      go 0 0.0

  let reset t =
    Array.iter (fun c -> Sync.Atomic.set c 0) t.counts;
    Sync.Atomic.set t.total 0;
    Sync.Atomic.set t.sum 0.0
end

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

type key = string * (string * string) list

type t = {
  tbl : (key, metric) Hashtbl.t;
  lock : Sync.Mutex.t;
  (* Registration order, newest first; samples reverse it. *)
  (* sdx-owner: order (and tbl) are only touched under [lock]. *)
  mutable order : key list;
}

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { count : int; sum : float; p50 : float; p90 : float; p99 : float }

type sample = {
  sample_name : string;
  sample_labels : (string * string) list;
  sample_value : value;
}

let create () = { tbl = Hashtbl.create 64; lock = Sync.Mutex.create (); order = [] }
let default = create ()

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* Get-or-create under the lock; creation is cheap, so unlike the
   compile pipeline cache there is no benefit to building outside it. *)
let intern registry ?(labels = []) name ~make ~extract ~wanted =
  let key = (name, normalize_labels labels) in
  Sync.Mutex.lock registry.lock;
  let m =
    match Hashtbl.find_opt registry.tbl key with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.replace registry.tbl key m;
        registry.order <- key :: registry.order;
        m
  in
  Sync.Mutex.unlock registry.lock;
  match extract m with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Registry: %S is a %s, requested as a %s" name
           (kind_name m) wanted)

let counter ?(registry = default) ?labels name =
  intern registry ?labels name
    ~make:(fun () -> M_counter (Counter.make ()))
    ~extract:(function M_counter c -> Some c | _ -> None)
    ~wanted:"counter"

let gauge ?(registry = default) ?labels name =
  intern registry ?labels name
    ~make:(fun () -> M_gauge (Gauge.make ()))
    ~extract:(function M_gauge g -> Some g | _ -> None)
    ~wanted:"gauge"

let histogram ?(registry = default) ?labels ?(buckets = Histogram.default_buckets)
    name =
  intern registry ?labels name
    ~make:(fun () -> M_histogram (Histogram.make buckets))
    ~extract:(function M_histogram h -> Some h | _ -> None)
    ~wanted:"histogram"

let sample_of_metric (name, labels) m =
  let sample_value =
    match m with
    | M_counter c -> Counter_v (Counter.value c)
    | M_gauge g -> Gauge_v (Gauge.value g)
    | M_histogram h ->
        Histogram_v
          {
            count = Histogram.count h;
            sum = Histogram.sum h;
            p50 = Histogram.percentile h 0.50;
            p90 = Histogram.percentile h 0.90;
            p99 = Histogram.percentile h 0.99;
          }
  in
  { sample_name = name; sample_labels = labels; sample_value }

let samples t =
  Sync.Mutex.lock t.lock;
  let keys = List.rev t.order in
  let out =
    List.map (fun key -> sample_of_metric key (Hashtbl.find t.tbl key)) keys
  in
  Sync.Mutex.unlock t.lock;
  out

let reset t =
  Sync.Mutex.lock t.lock;
  Hashtbl.iter
    (fun _ -> function
      | M_counter c -> Counter.reset c
      | M_gauge g -> Gauge.reset g
      | M_histogram h -> Histogram.reset h)
    t.tbl;
  Sync.Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let label_string labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

let pp_float fmt x =
  if Float.is_nan x then Format.pp_print_string fmt "nan"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Format.fprintf fmt "%.0f" x
  else Format.fprintf fmt "%.6g" x

let pp_samples fmt samples =
  Format.pp_open_vbox fmt 0;
  List.iteri
    (fun i s ->
      if i > 0 then Format.pp_print_cut fmt ();
      let id = s.sample_name ^ label_string s.sample_labels in
      match s.sample_value with
      | Counter_v n -> Format.fprintf fmt "%-48s %d" id n
      | Gauge_v x -> Format.fprintf fmt "%-48s %a" id pp_float x
      | Histogram_v h ->
          Format.fprintf fmt
            "%-48s count=%d sum=%a p50=%a p90=%a p99=%a" id h.count pp_float
            h.sum pp_float h.p50 pp_float h.p90 pp_float h.p99)
    samples;
  Format.pp_close_box fmt ()

let pp fmt t = pp_samples fmt (samples t)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float x = if Float.is_nan x then "null" else Printf.sprintf "%.9g" x

let json_of_sample buf s =
  Buffer.add_string buf (Printf.sprintf "{\"name\":\"%s\"" (json_escape s.sample_name));
  (match s.sample_labels with
  | [] -> ()
  | labels ->
      Buffer.add_string buf ",\"labels\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
        labels;
      Buffer.add_char buf '}');
  (match s.sample_value with
  | Counter_v n -> Buffer.add_string buf (Printf.sprintf ",\"type\":\"counter\",\"value\":%d" n)
  | Gauge_v x ->
      Buffer.add_string buf
        (Printf.sprintf ",\"type\":\"gauge\",\"value\":%s" (json_float x))
  | Histogram_v h ->
      Buffer.add_string buf
        (Printf.sprintf
           ",\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s"
           h.count (json_float h.sum) (json_float h.p50) (json_float h.p90)
           (json_float h.p99)));
  Buffer.add_char buf '}'

let json_array_of_samples samples =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      json_of_sample buf s)
    samples;
  Buffer.add_char buf ']';
  Buffer.contents buf

let json_of_samples samples =
  "{\"metrics\":" ^ json_array_of_samples samples ^ "}"

let to_json t = json_of_samples (samples t)
