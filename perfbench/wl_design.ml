(* Workload [design]: the paper's headline question — which 4-8 gate
   types to calibrate.  Each round draws one application unitary each
   of QV, QAOA, QFT and Fermi-Hubbard (fresh seeded draws, except the
   QFT sample, which is always the controlled-phase(pi/2)), clears the
   decomposition cache, and runs the beam search over the default
   candidate pool, so every (pool type x sample unitary) curve is a cold
   NuOp decomposition fanned out over the Domain pool.  The search
   never touches the simulators or the service. *)

open Common

let counts = Apps.Su4_unitaries.[ (Qv, 1); (Qaoa, 1); (Qft, 1); (Fh, 1) ]
let unitaries_per_round = List.fold_left (fun acc (_, n) -> acc + n) 0 counts

type env = {
  pool : Gates.Gate_type.t list;
  topology : Device.Topology.t;
  options : Isa.Search.options;
}

(* Set-up builds the pool and the topology, then warms the process
   (heap growth, first domain spawns) with one search over fixed
   unitaries: the first round otherwise runs ~50% slower than the
   identical second one. *)
let setup () =
  let env =
    {
      pool = Isa.Search.default_pool ();
      topology = Device.Calibration.topology (Device.calibration (Device.sycamore ()));
      options = { Isa.Search.default_options with domains = Some (domains ()) };
    }
  in
  Decompose.Cache.clear ();
  ignore
    (Isa.Search.run ~options:env.options
       ~samples:[ ("warm-up", Apps.Su4_unitaries.qft_set ~count:2 ()) ]
       ~topology:env.topology env.pool);
  env

let samples ~seed r = Isa.Score.samples ~counts (Linalg.Rng.create ((seed * 7919) + r))

type round = {
  samples : (string * Linalg.Mat.t list) list;
  points : Isa.Search.point list;
  seconds : float;
  curves : int;
  hits : int;
  misses : int;
  mutable near_boundary : int;  (** unitaries within the threshold of a lower CNOT class *)
}

let round env ~seed r =
  let samples = samples ~seed r in
  Decompose.Cache.clear ();
  let points, seconds =
    Layers.span "decompose" (fun () ->
        Isa.Search.run ~options:env.options ~samples ~topology:env.topology env.pool)
  in
  let hits, misses = Decompose.Cache.stats () in
  {
    samples;
    points;
    seconds;
    curves = List.length env.pool * unitaries_per_round;
    hits;
    misses;
    near_boundary = 0;
  }

(* |Tr(U_d^dag U_t)| / 4, recomputed with plain matrix algebra. *)
let fidelity_of ud ut =
  Complex.norm (Linalg.Mat.trace (Linalg.Mat.mul (Linalg.Mat.dagger ud) ut)) /. 4.0

(* Independent checks on one round (run while its curves are cached).

   NuOp's exact CZ layer count against the analytic Weyl-chamber CNOT
   count: NuOp may never need more layers than the analytic minimum,
   and may use fewer only for a unitary within the fidelity threshold of
   a lower class — then its decomposition, recomputed here, must reach
   the threshold.  Below the threshold the two counts agree exactly.

   Each design point's chosen decomposition of each unitary (fewest
   exact layers over the set's types) must reach the threshold when its
   F_d is recomputed from the implemented unitary. *)
let check_round env c rd =
  let threshold = env.options.Isa.Search.threshold in
  let nuop = env.options.Isa.Search.nuop in
  let exact ty u = Decompose.Cache.decompose_exact ~options:nuop ~threshold ty ~target:u in
  let us = List.concat_map snd rd.samples in
  List.iter
    (fun (app, us) ->
      List.iteri
        (fun i u ->
          let d = exact Gates.Gate_type.s3 u in
          let layers = d.Decompose.Nuop.layers in
          let weyl = Decompose.Weyl.cnot_count u in
          let fd = fidelity_of (Decompose.Nuop.implemented_unitary d) u in
          if layers < weyl then rd.near_boundary <- rd.near_boundary + 1;
          check c
            (layers = weyl || (layers < weyl && fd >= threshold))
            "design: %s unitary %d: CZ layers %d (F_d %.12f) vs Weyl CNOT count %d" app i
            layers fd weyl)
        us)
    rd.samples;
  List.iter
    (fun (p : Isa.Search.point) ->
      List.iter
        (fun u ->
          let cands = List.map (fun ty -> exact ty u) (Isa.Set.gate_types p.set) in
          let reaching = List.filter (fun d -> d.Decompose.Nuop.fd >= threshold) cands in
          match
            List.sort
              (fun a b -> compare a.Decompose.Nuop.layers b.Decompose.Nuop.layers)
              reaching
          with
          | [] ->
            check c false "design: set %s reaches no exact decomposition"
              (Isa.Set.name p.set)
          | d :: _ ->
            let fd = fidelity_of (Decompose.Nuop.implemented_unitary d) u in
            check c (fd >= threshold) "design: chosen %s decomposition F_d %.9f < threshold"
              (Gates.Gate_type.name d.Decompose.Nuop.gate_type) fd)
        us)
    rd.points;
  (* every curve computed exactly once, and reused by the approximate
     mode: nothing more, nothing less *)
  check c (rd.misses = rd.curves && rd.hits = rd.curves)
    "design: cache %d hits / %d misses for %d curves" rd.hits rd.misses rd.curves;
  ops c rd.curves

let digest rd =
  let b = Buffer.create 1024 in
  List.iter
    (fun (p : Isa.Search.point) ->
      Printf.bprintf b "%s|%s|%s|%d;"
        (String.concat "," (List.map Gates.Gate_type.name (Isa.Set.gate_types p.set)))
        (exact p.score.Isa.Score.mean_fidelity) (exact p.score.Isa.Score.mean_layers)
        p.cost.Isa.Cost.circuits)
    rd.points;
  List.iter
    (fun u -> Printf.bprintf b "w%d" (Decompose.Weyl.cnot_count u))
    (List.concat_map snd rd.samples);
  digest_hex (Buffer.contents b)

(* Rounds until [stop rounds_done seconds_spent] (at least one).  Only
   round 0 keeps its samples and design points (for the digest); later
   rounds keep counts and timings, so memory stays flat. *)
let timed env c ~seed ~stop =
  let rec go r acc spent =
    if acc <> [] && stop r spent then List.rev acc
    else begin
      let rd = round env ~seed r in
      check_round env c rd;
      let kept = if r = 0 then rd else { rd with samples = []; points = [] } in
      go (r + 1) (kept :: acc) (spent +. rd.seconds)
    end
  in
  go 0 [] 0.0

let service_counters () =
  List.filter (fun (n, _) -> String.starts_with ~prefix:"service." n) (Obs.Counter.all ())

let print_params env ~seed =
  section "design: parameters";
  kv "seed" "%d" seed;
  kv "candidate pool" "%d types" (List.length env.pool);
  kv "unitaries per round" "%d (one each of QV, QAOA, QFT, FH)" unitaries_per_round;
  kv "curves per round" "%d" (List.length env.pool * unitaries_per_round);
  kv "search" "max %d types, beam %d" env.options.Isa.Search.max_types
    env.options.Isa.Search.beam_width;
  kv "domains" "%d (caller included)" (domains ())

let print_points rd =
  List.iter
    (fun (p : Isa.Search.point) ->
      kv
        (Printf.sprintf "design point %d types" (Isa.Set.size p.set))
        "F=%.6f layers=%.3f circuits=%d [%s]" p.score.Isa.Score.mean_fidelity
        p.score.Isa.Score.mean_layers p.cost.Isa.Cost.circuits
        (String.concat " " (List.map Gates.Gate_type.name (Isa.Set.gate_types p.set))))
    rd.points

let curves_and_time rounds =
  List.fold_left (fun (n, t) rd -> (n + rd.curves, t +. rd.seconds)) (0, 0.0) rounds

(* ---------- end-to-end run ---------- *)

let run c ~seed ~seconds =
  let env, setup_s = setup_median ~repeats:5 setup in
  print_params env ~seed;
  let svc0 = service_counters () in
  let rounds = timed env c ~seed ~stop:(fun _ spent -> spent >= seconds) in
  check c (service_counters () = svc0) "design: service counters moved";
  let rd0 = List.hd rounds in
  section "design: results (round 0)";
  print_points rd0;
  kv "digest" "%s" (digest rd0);
  let curves, spent = curves_and_time rounds in
  section "design: end-to-end";
  kv "rounds" "%d" (List.length rounds);
  kv "Weyl check" "%d unitaries, %d within the threshold of a lower CNOT class"
    (List.length rounds * unitaries_per_round)
    (List.fold_left (fun a rd -> a + rd.near_boundary) 0 rounds);
  kv "curves_per_s" "%.3f 1/s (%d curves in %.3f s)"
    (ratio (float_of_int curves) spent)
    curves spent;
  kv "sim / service calls" "0 / 0 (isa links neither; service counters unchanged)";
  end_to_end c ~setup_s ~unit_name:"curves" ~units:curves ~elapsed:spent
    ~rates:(List.map (fun rd -> ratio (float_of_int rd.curves) rd.seconds) rounds)
    ~latencies:(List.map (fun rd -> rd.seconds) rounds)
    ()

(* ---------- traced run ---------- *)

(* Sequential probes on a fixed subset of the design pairs: the first
   unitary of each application against four pool types. *)
let probe_pairs env ~seed =
  let types =
    let wanted = List.map Gates.Gate_type.name Gates.Gate_type.[ s1; s3; s5; s7 ] in
    List.filter (fun ty -> List.mem (Gates.Gate_type.name ty) wanted) env.pool
  in
  let us = List.map (fun (_, l) -> List.hd l) (samples ~seed 0) in
  List.concat_map (fun ty -> List.map (fun u -> (ty, u)) us) types

type curve_probe = {
  gate_type : Gates.Gate_type.t;
  target : Linalg.Mat.t;
  curve_s : float;
  layers_tried : int;
  words : float;  (** minor words allocated by the call *)
  chosen : int;  (** exact layer count NuOp chose *)
}

let probe_curves env ~seed =
  let nuop = env.options.Isa.Search.nuop in
  let threshold = env.options.Isa.Search.threshold in
  Concurrent.Domain_pool.sequential_scope (fun () ->
      List.map
        (fun (gate_type, target) ->
          let (curve, curve_s), words =
            with_minor_words (fun () ->
                Layers.span "decompose" (fun () ->
                    Decompose.Nuop.fd_curve ~options:nuop gate_type ~target))
          in
          let chosen =
            (Decompose.Nuop.exact_of_curve ~threshold gate_type curve).Decompose.Nuop.layers
          in
          { gate_type; target; curve_s; layers_tried = Array.length curve; words; chosen })
        (probe_pairs env ~seed))

type bfgs_probe = { iterations : int; evals : int; objective_s : float; bfgs_s : float }

(* BFGS on the template objective at the layer count NuOp chose, from
   NuOp's own first start; the objective is wrapped to count and time
   its evaluations. *)
let probe_bfgs c env curves =
  let nuop = env.options.Isa.Search.nuop in
  let options =
    { nuop.Decompose.Nuop.bfgs with f_tol = 1.0 -. nuop.Decompose.Nuop.convergence_fd }
  in
  List.map
    (fun p ->
      let tpl = Decompose.Template.create p.gate_type ~layers:p.chosen in
      let evals = ref 0 and objective_s = ref 0.0 in
      let f x =
        let t0 = now () in
        let v = Decompose.Template.infidelity tpl x ~target:p.target in
        objective_s := !objective_s +. (now () -. t0);
        incr evals;
        v
      in
      let x0 = Array.make (Decompose.Template.param_count tpl) 0.1 in
      let r, bfgs_s =
        Layers.span "optimize" (fun () -> Optimize.Bfgs.minimize ~options f x0)
      in
      check c (r.Optimize.Bfgs.evaluations = !evals)
        "optimize: BFGS reports %d evaluations, the objective saw %d"
        r.Optimize.Bfgs.evaluations !evals;
      {
        iterations = r.Optimize.Bfgs.iterations;
        evals = !evals;
        objective_s = !objective_s;
        bfgs_s;
      })
    curves

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let run_traced c ~seed ~seconds ~trace_path =
  let env = setup () in
  print_params env ~seed;
  let half = Float.max 1.0 (seconds /. 2.0) in
  let plain = timed env c ~seed ~stop:(fun _ spent -> spent >= half) in
  let svc0 = service_counters () in
  (* the same rounds again under the trace, then the layer probes *)
  let (traced, curves, bfgs), check_result, tr =
    Layers.traced trace_path (fun () ->
        let traced = timed env c ~seed ~stop:(fun r _ -> r >= List.length plain) in
        let curves = probe_curves env ~seed in
        (traced, curves, probe_bfgs c env curves))
  in
  check c (service_counters () = svc0) "design: service counters moved";
  Layers.validated c check_result;
  check c
    (Layers.get tr.Layers.busy "sim" = 0.0 && Layers.get tr.Layers.busy "service" = 0.0)
    "design: trace shows sim or service time";
  let per_curve rounds =
    let n, t = curves_and_time rounds in
    ratio t (float_of_int n)
  in
  let hits, misses =
    List.fold_left (fun (h, m) rd -> (h + rd.hits, m + rd.misses)) (0, 0) traced
  in
  let ms = List.map (fun p -> 1000.0 *. p.curve_s) curves in
  let n = float_of_int (List.length curves) in
  let iters = sum (fun b -> float_of_int b.iterations) bfgs in
  let evals = sum (fun b -> float_of_int b.evals) bfgs in
  let objective_s = sum (fun b -> b.objective_s) bfgs in
  let bfgs_s = sum (fun b -> b.bfgs_s) bfgs in
  let calls = float_of_int (List.length bfgs) in
  section "design: probes";
  kv "decompose probe" "%d sequential fd_curve calls (4 types x 4 unitaries)"
    (List.length curves);
  kv "bfgs probe" "%.0f calls, %.0f iterations, %.0f objective evaluations" calls iters
    evals;
  kv "cache lookups (traced rounds)" "%d (%d hits, %d misses)" (hits + misses) hits misses;
  Layers.overhead ~untraced:(per_curve plain) ~traced:(per_curve traced)
  @ [
      ("decompose.curve_ms.p50", median ms);
      ("decompose.curve_ms.p99", percentile (sorted_array ms) 99.0);
      ( "decompose.layers_per_curve",
        sum (fun p -> float_of_int p.layers_tried) curves /. n );
      ("decompose.minor_words_per_curve", sum (fun p -> p.words) curves /. n);
      ("decompose.cache.misses", float_of_int misses);
      ( "decompose.cache.hit_ratio",
        ratio (float_of_int hits) (float_of_int (hits + misses)) );
      ("optimize.bfgs.iterations_per_call", iters /. calls);
      ("optimize.bfgs.evals_per_call", evals /. calls);
      ("optimize.bfgs.evals_per_iter", ratio evals iters);
      ("optimize.objective_ns", 1e9 *. ratio objective_s evals);
      ("optimize.bfgs.self_share", ratio (bfgs_s -. objective_s) bfgs_s);
      ("concurrent.pool.busy_share", Layers.pool_busy_share tr);
    ]
  @ Layers.layer_values tr
