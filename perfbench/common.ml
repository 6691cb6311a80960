(* Shared plumbing for the benchmark: clock, order statistics, memory
   readings, correctness bookkeeping, the report printer and the final
   JSON result line. *)

let now = Obs.Clock.now

(* ---------- order statistics ---------- *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* nearest-rank percentile of an ascending array; 0 on no samples *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let median xs = percentile (sorted_array xs) 50.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Safe ratio: a layer the workload bypasses reads 0, not nan. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The tail percentile a sample count supports: the highest of p99,
   p95, p90 that still has at least ten samples beyond it, else p75.
   Returned with its label so reports name what they print. *)
let tail xs =
  let a = sorted_array xs in
  let beyond p = float_of_int (Array.length a) *. (1.0 -. (p /. 100.0)) in
  let p =
    List.find_opt (fun p -> beyond p >= 10.0) [ 99.0; 95.0; 90.0 ]
    |> Option.value ~default:75.0
  in
  (Printf.sprintf "p%g" p, percentile a p)

(* ---------- process readings ---------- *)

(* Peak resident set (VmHWM) in MB, from /proc/self/status. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
           | _ -> None)
    |> Option.value ~default:0.0

let domains () = Domain.recommended_domain_count ()

(* Minor-heap words allocated by the calling domain while [f] runs. *)
let with_minor_words f =
  let w0 = Gc.minor_words () in
  let v = f () in
  (v, Gc.minor_words () -. w0)

(* ---------- correctness bookkeeping ---------- *)

(* Operations are the workload's units of work (curves, evaluations,
   trajectories, requests); an operation fails when it raises, is
   refused, or its output disagrees with the independent reference.
   Checks are the whole-run properties (isolation, determinism). *)
type checks = {
  mutable ops : int;
  mutable ops_failed : int;
  mutable checks : int;
  mutable checks_failed : int;
  mutable failures : string list;  (** first few failure messages *)
}

let checks () = { ops = 0; ops_failed = 0; checks = 0; checks_failed = 0; failures = [] }

let note c msg = if List.length c.failures < 8 then c.failures <- msg :: c.failures

let op c ok fmt =
  Printf.ksprintf
    (fun msg ->
      c.ops <- c.ops + 1;
      if not ok then begin
        c.ops_failed <- c.ops_failed + 1;
        note c msg
      end)
    fmt

(* [n] operations with no check of their own: their results are
   checked as a whole by {!check}s *)
let ops c n = c.ops <- c.ops + n

let check c ok fmt =
  Printf.ksprintf
    (fun msg ->
      c.checks <- c.checks + 1;
      if not ok then begin
        c.checks_failed <- c.checks_failed + 1;
        note c msg
      end)
    fmt

(* A failed whole-run check fails the run, so it counts as a failed
   operation in [failed] (capped at the number attempted). *)
let attempted c = max 1 c.ops
let failed c = min (attempted c) (c.ops_failed + c.checks_failed)
let correct c = c.ops > 0 && c.ops_failed = 0 && c.checks_failed = 0

(* ---------- results ---------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value =
  { name; unit_; value = (if Float.is_finite value then value else 0.0) }

let digest_hex s = Digest.to_hex (Digest.string s)

(* A float rendered with every digit, for digests: two runs agree on a
   digest only if they computed bit-identical results. *)
let exact f = Printf.sprintf "%h" f

let section title = Printf.printf "\n== %s ==\n" title

let kv key fmt = Printf.ksprintf (fun v -> Printf.printf "  %-34s %s\n" key v) fmt

let print_metrics ?(moves = fun _ -> "") metrics =
  List.iter
    (fun m ->
      let arrow = match moves m.name with "" -> "" | s -> "  -> " ^ s in
      Printf.printf "  %-40s %16.6g %-6s%s\n" m.name m.value m.unit_ arrow)
    metrics

(* every digit, and always a valid JSON number *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line c metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
             m.unit_)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct c) (attempted c) (failed c) body

(* ---------- shared end-to-end metrics ---------- *)

(* Set-up runs [repeats] times (each repeat redoes all of it, cache
   fills included); the median is reported, the last result kept and
   the earlier ones released with [dispose]. *)
let setup_median ?(repeats = 3) ?(dispose = ignore) f =
  let rec go k acc =
    let t0 = now () in
    let v = f () in
    let acc = (now () -. t0) :: acc in
    if k <= 1 then (v, median acc)
    else begin
      dispose v;
      go (k - 1) acc
    end
  in
  go repeats []

(* The five end-to-end metrics every workload reports: set-up time,
   peak memory, units of work per second, and the median and tail
   latency of one unit as its caller sees it.  Throughput is the median
   of per-round (or per-window) rates, so a burst of machine noise in
   one part of the run does not move it; [tail] overrides the default
   tail percentile of [latencies]. *)
let end_to_end ?tail:tail_override c ~setup_s ~unit_name ~units ~elapsed ~rates ~latencies
    () =
  let a = sorted_array latencies in
  let tail_label, tail_s =
    match tail_override with Some t -> t | None -> tail latencies
  in
  let rss = peak_rss_mb () in
  check c (rss > 0.0) "peak_rss_mb: no VmHWM in /proc/self/status";
  let throughput = median rates in
  kv "setup_s" "%.4f s (median of the set-up repeats)" setup_s;
  kv "peak_rss_mb" "%.1f MB (VmHWM)" rss;
  kv "throughput_per_s" "%.3f %s/s (median of %d rates; overall %d in %.3f s = %.3f/s)"
    throughput unit_name (List.length rates) units elapsed
    (ratio (float_of_int units) elapsed);
  kv "latency" "%d samples, p50 %.3f ms, tail (%s) %.3f ms" (Array.length a)
    (1000.0 *. percentile a 50.0) tail_label (1000.0 *. tail_s);
  kv "failed_ratio" "%.4f (%d failed of %d attempted, %d of %d checks failed)"
    (ratio (float_of_int (failed c)) (float_of_int (attempted c)))
    (failed c) (attempted c) c.checks_failed c.checks;
  [
    metric "setup_s" "s" setup_s;
    metric "peak_rss_mb" "MB" rss;
    metric "throughput_per_s" "1/s" throughput;
    metric "latency_p50_ms" "ms" (1000.0 *. percentile a 50.0);
    metric "latency_tail_ms" "ms" (1000.0 *. tail_s);
  ]
