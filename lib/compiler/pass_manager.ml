(* Runs a pass stack over a shared context, recording per-pass metrics:
   wall time, 1Q/2Q/SWAP/depth/duration deltas, and decomposition-cache
   hits.  The metrics rows feed Core.Report tables and the CLI's
   `compile --trace-passes`. *)

type pass_metrics = {
  pass_name : string;
  time_s : float;
  oneq_before : int;
  oneq_after : int;
  twoq_before : int;
  twoq_after : int;
  swaps_before : int;
  swaps_after : int;
  depth_before : int;
  depth_after : int;
  duration_before : float;  (** timed-executable length, seconds *)
  duration_after : float;
  cache_hits : int;  (** fidelity-curve cache hits during the pass *)
  cache_misses : int;
  cache_warm_hits : int;
      (** subset of [cache_hits] served by disk-loaded (warm) entries *)
}

let snapshot (ctx : Pass.Context.t) =
  let c = ctx.Pass.Context.circuit in
  let duration =
    match ctx.Pass.Context.schedule with
    | Some s -> Schedule.total_duration s
    | None -> Schedule.total_duration (Pass.timed_schedule ctx)
  in
  ( Qcir.Circuit.one_qubit_count c,
    Qcir.Circuit.two_qubit_count c,
    ctx.Pass.Context.swap_count,
    Qcir.Circuit.depth c,
    duration )

let run_pass pass ctx =
  let oneq_before, twoq_before, swaps_before, depth_before, duration_before =
    snapshot ctx
  in
  let hits0, misses0 = Decompose.Cache.stats () in
  let warm0 = Decompose.Cache.warm_hits () in
  (* The span clock is the one wall-clock source (the old process-CPU
     clock meant a pass blocked on I/O or sleeping reported zero).
     [time_s] covers exactly the pass body; the span's own end event
     additionally covers the metric snapshot below and carries the
     deltas as attributes. *)
  let span = Obs.Span.enter ("pass." ^ Pass.name pass) in
  Pass.run pass ctx;
  let time_s = Obs.Span.elapsed span in
  let hits1, misses1 = Decompose.Cache.stats () in
  let warm1 = Decompose.Cache.warm_hits () in
  let oneq_after, twoq_after, swaps_after, depth_after, duration_after =
    snapshot ctx
  in
  ignore
    (Obs.Span.exit span
       ~attrs:
         [
           ("oneq", string_of_int oneq_after);
           ("twoq", string_of_int twoq_after);
           ("swaps", string_of_int swaps_after);
           ("depth", string_of_int depth_after);
           ("duration_ns", Printf.sprintf "%.0f" (1e9 *. duration_after));
           ("cache_hits", string_of_int (hits1 - hits0));
           ("cache_misses", string_of_int (misses1 - misses0));
           ("cache_warm_hits", string_of_int (warm1 - warm0));
         ]);
  {
    pass_name = Pass.name pass;
    time_s;
    oneq_before;
    oneq_after;
    twoq_before;
    twoq_after;
    swaps_before;
    swaps_after;
    depth_before;
    depth_after;
    duration_before;
    duration_after;
    cache_hits = hits1 - hits0;
    cache_misses = misses1 - misses0;
    cache_warm_hits = warm1 - warm0;
  }

let run stack ctx =
  Obs.Span.with_
    ~attrs:[ ("passes", string_of_int (List.length stack)) ]
    "pass_manager.run"
    (fun () -> List.map (fun pass -> run_pass pass ctx) stack)

(* ---------- rendering (header + rows for a Core.Report.Table block) ---------- *)

let header = [ "pass"; "time"; "1Q"; "2Q"; "SWAPs"; "depth"; "duration"; "cache h/m" ]

let delta_cell after before =
  if after = before then string_of_int after
  else Printf.sprintf "%d (%+d)" after (after - before)

(* Durations render in nanoseconds — the scale of every calibrated gate
   time — with the delta when a pass changed the critical path. *)
let duration_cell after before =
  let ns v = Printf.sprintf "%.0f ns" (1e9 *. v) in
  if Float.abs (after -. before) <= 1e-12 then ns after
  else Printf.sprintf "%s (%+.0f)" (ns after) (1e9 *. (after -. before))

(* Warm hits only appear when a snapshot file was loaded, so cold runs
   render exactly as before (the fig11 golden and the warm-equals-cold
   CI diff both rely on that). *)
let cache_cell m =
  if m.cache_warm_hits > 0 then
    Printf.sprintf "%d (%d warm)/%d" m.cache_hits m.cache_warm_hits m.cache_misses
  else Printf.sprintf "%d/%d" m.cache_hits m.cache_misses

let row m =
  [
    m.pass_name;
    Printf.sprintf "%.1f ms" (1000.0 *. m.time_s);
    delta_cell m.oneq_after m.oneq_before;
    delta_cell m.twoq_after m.twoq_before;
    delta_cell m.swaps_after m.swaps_before;
    delta_cell m.depth_after m.depth_before;
    duration_cell m.duration_after m.duration_before;
    cache_cell m;
  ]

let rows metrics = List.map row metrics
