(* The repository benchmark.

     main.exe --workload design|reliability|serve --seed N --seconds S --trace 0|1

   With --trace 0 the workload runs untraced and reports the end-to-end
   metrics; with --trace 1 it runs half its time untraced and half under
   a JSONL trace sink, and reports the per-layer metrics.  The human
   report goes first; the last line of stdout is one JSON object
   {correct, attempted, failed, metrics}.  Exit code 1 when any
   correctness or isolation check failed, 2 on bad arguments. *)

(* Every per-layer metric: name, unit, and the end-to-end metric (on
   the named workload) it should move.  Each traced run reports all of
   them; a layer the workload bypasses reads 0. *)
let per_layer =
  [
    ("decompose.curve_ms.p50", "ms", "design throughput; serve latency tail");
    ("decompose.curve_ms.p99", "ms", "design throughput; serve latency tail");
    ("decompose.layers_per_curve", "count", "design throughput");
    ("decompose.minor_words_per_curve", "words", "design throughput, peak_rss_mb");
    ("decompose.cache.misses", "count", "serve throughput (0 on reliability)");
    ("decompose.cache.hit_ratio", "ratio", "serve latency p50, throughput");
    ("optimize.bfgs.iterations_per_call", "count", "design throughput");
    ("optimize.bfgs.evals_per_call", "count", "design throughput");
    ("optimize.bfgs.evals_per_iter", "count", "design throughput");
    ("optimize.objective_ns", "ns", "design throughput");
    ("optimize.bfgs.self_share", "ratio", "design throughput");
    ("concurrent.pool.busy_share", "ratio", "design and reliability throughput");
    ("compiler.compile_ms.p50", "ms", "reliability throughput; serve latency");
    ("compiler.pass.place_ms", "ms", "reliability throughput; serve latency");
    ("compiler.pass.route_ms", "ms", "reliability throughput; serve latency");
    ("compiler.pass.lower_ms", "ms", "reliability throughput; serve latency");
    ("compiler.pass.compact_ms", "ms", "reliability throughput; serve latency");
    ("compiler.pass.schedule_ms", "ms", "reliability throughput; serve latency");
    ("sim.density.ms_per_circuit", "ms", "reliability throughput (evals)");
    ("sim.density.minor_words_per_circuit", "words", "reliability throughput (evals)");
    ("sim.state.ns_per_amp_gate", "ns", "reliability throughput (evals, trajectories)");
    ("sim.trajectory.ms_per_trajectory", "ms", "reliability throughput (trajectories)");
    ( "sim.trajectory.minor_words_per_trajectory",
      "words",
      "reliability throughput (trajectories)" );
    ("sim.busy_share", "ratio", "reliability throughput");
    ("service.exec_ms.p50", "ms", "serve latency p50");
    ("service.exec_ms.p99", "ms", "serve latency tail");
    ("service.queue_wait_ms.mean", "ms", "serve latency tail");
    ("service.hit_latency_ms.p50", "ms", "serve latency p50, tail");
    ("service.miss_latency_ms.p50", "ms", "serve latency p50, tail");
    ("service.completed", "count", "serve failed share");
    ("service.rejected", "count", "serve failed share");
    ("service.timeout", "count", "serve failed share");
    ("obs.tracing_overhead", "ratio", "none (traced vs untraced wall time)");
  ]
  @ List.concat_map
      (fun l ->
        [
          (Printf.sprintf "layer.%s.busy_s" l, "s", "the layer's workload throughput");
          (Printf.sprintf "layer.%s.self_s" l, "s", "the layer's workload throughput");
        ])
      Layers.names

let usage () =
  prerr_endline
    "usage: main.exe --workload design|reliability|serve --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t when sec > 0.0 -> (w, s, sec, t)
  | _ -> usage ()

let trace_path workload =
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "trace-%s.jsonl" workload)

let () =
  let workload, seed, seconds, trace = parse_args () in
  let c = Common.checks () in
  let run, run_traced =
    match workload with
    | "design" -> (Wl_design.run, Wl_design.run_traced)
    | "reliability" -> (Wl_reliability.run, Wl_reliability.run_traced)
    | "serve" -> (Wl_serve.run, Wl_serve.run_traced)
    | _ -> usage ()
  in
  Printf.printf "perfbench: workload %s, seed %d, %.0f s, %s\n" workload seed seconds
    (if trace then "traced (per-layer metrics)" else "untraced (end-to-end metrics)");
  let metrics =
    if not trace then begin
      let m = run c ~seed ~seconds in
      Common.section (workload ^ ": end-to-end metrics");
      Common.print_metrics m;
      m
    end
    else begin
      let values = run_traced c ~seed ~seconds ~trace_path:(trace_path workload) in
      List.iter
        (fun (name, _) ->
          if not (List.exists (fun (n, _, _) -> n = name) per_layer) then
            Common.check c false "unknown per-layer metric %s" name)
        values;
      let m =
        List.map
          (fun (name, unit_, _) ->
            Common.metric name unit_
              (Option.value ~default:0.0 (List.assoc_opt name values)))
          per_layer
      in
      Common.section
        (workload ^ ": per-layer metrics (-> end-to-end metric each should move)");
      Common.print_metrics
        ~moves:(fun name ->
          List.find_map
            (fun (n, _, moves) -> if n = name then Some moves else None)
            per_layer
          |> Option.value ~default:"")
        m;
      m
    end
  in
  List.iter
    (fun msg -> Printf.printf "CHECK FAILED: %s\n" msg)
    (List.rev c.Common.failures);
  print_endline (Common.result_line c metrics);
  exit (if Common.correct c then 0 else 1)
