(* Workload [reliability]: a Fig 9/10-style study on Sycamore lines with
   a warm decomposition cache.  Set-up generates the seeded suites and
   fills the cache by compiling every circuit once, so NuOp's cost lands
   in set-up.  Each timed round then composes the same public calls
   [Study.evaluate_circuit] and Fig 10 panel (f) make — a warm compile
   (zero NuOp calls), density simulation of 6-qubit QV/QAOA circuits
   with HOP/XED, and statevector trajectories of the 12-qubit
   Fermi-Hubbard step with trajectory XEB — mapped over the Domain pool.
   Almost all the time goes to the simulators.  Every round repeats the
   same work. *)

open Common

let width = 6
let qv_count = 3
let qaoa_count = 3
let fh_width = 12
let trajectories_per_set = 8

type metric = Hop | Xed

type job = { set : Isa.Set.t; metric : metric; label : string; circuit : Qcir.Circuit.t }

type env = {
  device : Device.t;
  fh_device : Device.t;
  jobs : job list;
  fh : Qcir.Circuit.t;
  fh_sets : Isa.Set.t list;
}

let placement device isa circuit =
  Option.get
    (Compiler.Mapping.best_line (Device.calibration device) isa
       (Qcir.Circuit.n_qubits circuit))

let compile device isa circuit =
  Compiler.Pipeline.compile_with_metrics ~device ~isa
    ~placement:(placement device isa circuit) circuit

(* the exact-compiled reference of Fig 10 panel (f) *)
let compile_exact device isa circuit =
  Compiler.Pipeline.compile
    ~options:{ Compiler.Pipeline.default_options with approximate = false }
    ~device ~isa ~placement:(placement device isa circuit) circuit

(* MaxCut on a seeded random 3-regular graph (resampled until every
   vertex has degree 3) with angles drawn from the ranges
   [Apps.Qaoa.random_instance] uses: every QAOA circuit has the same
   size, so the per-seed work varies only through routing. *)
let qaoa_circuit rng =
  let rec graph () =
    let g = Apps.Graph.three_regular rng width in
    if Apps.Graph.edge_count g = 3 * width / 2 then g else graph ()
  in
  let graph = graph () in
  let gamma = Linalg.Rng.uniform rng 0.4 1.2 in
  let beta = Linalg.Rng.uniform rng 0.2 0.8 in
  Apps.Qaoa.circuit_of_instance { Apps.Qaoa.graph; gamma; beta }

let inputs ~seed =
  let rng = Linalg.Rng.create seed in
  let qv = Apps.Qv.circuits rng ~count:qv_count width in
  let qaoa = List.init qaoa_count (fun _ -> qaoa_circuit rng) in
  let suite sets metric app circuits =
    List.concat_map
      (fun set ->
        List.mapi
          (fun i circuit -> { set; metric; label = Printf.sprintf "%s%d" app i; circuit })
          circuits)
      sets
  in
  {
    device = Device.sycamore_line width;
    fh_device = Device.sycamore_line fh_width;
    jobs =
      suite Isa.Set.[ s1; full_fsim ] Hop "qv" qv
      @ suite Isa.Set.[ s1; g7; full_fsim ] Xed "qaoa" qaoa;
    fh = Apps.Fermi_hubbard.circuit fh_width;
    fh_sets = Isa.Set.[ s2; g7 ];
  }

(* Set-up: inputs, then every decomposition the timed phase will look
   up, computed cold on the Domain pool. *)
let setup ~seed () =
  let env = inputs ~seed in
  Decompose.Cache.clear ();
  let fills =
    List.map (fun j () -> ignore (compile env.device j.set j.circuit)) env.jobs
    @ List.concat_map
        (fun set ->
          [
            (fun () -> ignore (compile env.fh_device set env.fh));
            (fun () -> ignore (compile_exact env.fh_device set env.fh));
          ])
        env.fh_sets
  in
  ignore (Concurrent.Domain_pool.map ~domains:(domains ()) (fun f -> f ()) fills);
  env

(* ---------- one round ---------- *)

type eval = {
  value : float;
  twoq : int;
  prob_sum : float;
  latency : float;
  compile_s : float;
  passes : Compiler.Pass_manager.pass_metrics list;
  density_s : float;
  density_words : float;
  state_s : float;
  state_work : float;  (** gates x 2^n of the statevector run *)
}

let amp_gates circuit =
  float_of_int (Qcir.Circuit.length circuit * (1 lsl Qcir.Circuit.n_qubits circuit))

let evaluate env job =
  let t0 = now () in
  let (compiled, passes), compile_s =
    Layers.span "compiler" (fun () -> compile env.device job.set job.circuit)
  in
  let ideal_state, state_s =
    Layers.span "sim" (fun () -> Sim.State.run_circuit job.circuit)
  in
  let ideal = Sim.State.probabilities ideal_state in
  let nm = Compiler.Pipeline.noise_model ~device:env.device compiled in
  let (raw, density_words), density_s =
    Layers.span "sim" (fun () ->
        with_minor_words (fun () ->
            Sim.Noisy.output_probabilities nm compiled.Compiler.Pipeline.circuit))
  in
  let noisy = Compiler.Pipeline.logical_probabilities compiled raw in
  let value =
    match job.metric with
    | Hop -> Metrics.Hop.probability ~ideal ~noisy
    | Xed -> Metrics.Xed.difference ~ideal ~noisy
  in
  {
    value;
    twoq = compiled.Compiler.Pipeline.twoq_count;
    prob_sum = Array.fold_left ( +. ) 0.0 raw;
    latency = now () -. t0;
    compile_s;
    passes;
    density_s;
    density_words;
    state_s;
    state_work = amp_gates job.circuit;
  }

type fh_prep = {
  fh_set : Isa.Set.t;
  fh_compiled : Compiler.Pipeline.compiled;
  model : Sim.Noisy.noise_model;
  ideal : Sim.State.t;
  ideal_self : float;
  prep_state_s : float;
  prep_state_work : float;
}

(* Fig 10 panel (f): decoherence held at zero, XEB against the
   exact-compiled reference. *)
let prepare_fh env set =
  let (compiled, _), _ =
    Layers.span "compiler" (fun () -> compile env.fh_device set env.fh)
  in
  let reference, _ =
    Layers.span "compiler" (fun () -> compile_exact env.fh_device set env.fh)
  in
  let model =
    {
      (Compiler.Pipeline.noise_model ~device:env.fh_device compiled) with
      Sim.Noisy.t1 = (fun _ -> infinity);
      t2 = (fun _ -> infinity);
    }
  in
  let rc = reference.Compiler.Pipeline.circuit in
  let ideal, prep_state_s = Layers.span "sim" (fun () -> Sim.State.run_circuit rc) in
  let p = Sim.State.probabilities ideal in
  {
    fh_set = set;
    fh_compiled = compiled;
    model;
    ideal;
    ideal_self = Metrics.Dist.overlap p p;
    prep_state_s;
    prep_state_work = amp_gates rc;
  }

type trajectory = { overlap : float; traj_s : float; traj_words : float }

let trajectory ~seed prep k =
  let (overlap, traj_words), traj_s =
    Layers.span "sim" (fun () ->
        with_minor_words (fun () ->
            Sim.Trajectory.mean_ideal_overlap ~seed:((seed * 1000) + k) ~trajectories:1
              prep.model prep.fh_compiled.Compiler.Pipeline.circuit ~ideal:prep.ideal))
  in
  { overlap; traj_s; traj_words }

(* What a round keeps of an FH set: its result and costs, not its
   states and circuits, so memory stays flat however many rounds run. *)
type fh_result = {
  fh_name : string;
  xeb : float;
  fh_twoq : int;
  fh_state_s : float;
  fh_state_work : float;
}

type round = {
  evals : eval list;
  fh : fh_result list;
  trajs : (int * trajectory) list;  (** (FH set index, trajectory) *)
  evals_s : float;
  trajs_s : float;
}

let map f l = Concurrent.Domain_pool.map ~domains:(domains ()) f l

let fh_result trajs i p =
  let ov = List.filter_map (fun (j, t) -> if i = j then Some t.overlap else None) trajs in
  let circuit = p.fh_compiled.Compiler.Pipeline.circuit in
  {
    fh_name = Isa.Set.name p.fh_set;
    xeb =
      Metrics.Xeb.from_overlap ~n_qubits:(Qcir.Circuit.n_qubits circuit)
        ~overlap_noisy_ideal:(mean ov) ~overlap_ideal_ideal:p.ideal_self;
    fh_twoq = p.fh_compiled.Compiler.Pipeline.twoq_count;
    fh_state_s = p.prep_state_s;
    fh_state_work = p.prep_state_work;
  }

let round env ~seed =
  let t0 = now () in
  let evals = map (evaluate env) env.jobs in
  let t1 = now () in
  let preps = map (prepare_fh env) env.fh_sets in
  let work =
    List.concat
      (List.mapi (fun i p -> List.init trajectories_per_set (fun k -> (i, p, k))) preps)
  in
  let trajs = map (fun (i, p, k) -> (i, trajectory ~seed p k)) work in
  let t2 = now () in
  {
    evals;
    fh = List.mapi (fh_result trajs) preps;
    trajs;
    evals_s = t1 -. t0;
    trajs_s = t2 -. t1;
  }

let units rd = List.length rd.evals + List.length rd.trajs
let round_s rd = rd.evals_s +. rd.trajs_s

(* ---------- checks ---------- *)

let max_abs_diff a b =
  let d = ref 0.0 in
  Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
  !d

(* Once per run, on freshly (warm-)compiled circuits: with the noise
   model switched off, density and statevector simulation must agree,
   and an FH trajectory must reproduce the statevector. *)
let check_ideal env c =
  List.iter
    (fun j ->
      let circuit = (fst (compile env.device j.set j.circuit)).Compiler.Pipeline.circuit in
      let rho = Sim.Noisy.output_probabilities Sim.Noisy.ideal circuit in
      let psi = Sim.State.probabilities (Sim.State.run_circuit circuit) in
      let d = max_abs_diff rho psi in
      check c (d <= 1e-9)
        "reliability: %s on %s: ideal density vs statevector differ by %.3g" j.label
        (Isa.Set.name j.set) d)
    env.jobs;
  List.iter
    (fun set ->
      let circuit = (fst (compile env.fh_device set env.fh)).Compiler.Pipeline.circuit in
      let s = Sim.Trajectory.run_one (Linalg.Rng.create 1) Sim.Noisy.ideal circuit in
      let f = Sim.State.fidelity_pure s (Sim.State.run_circuit circuit) in
      check c
        (Float.abs (1.0 -. f) <= 1e-9)
        "reliability: FH %s noiseless trajectory fidelity %.12f" (Isa.Set.name set) f)
    env.fh_sets

(* Every operation of every round: probabilities normalized, and each
   value bit-identical to round 0's. *)
let check_round env c ~r0 rd =
  List.iter2
    (fun (j, e0) e ->
      op c
        (Float.abs (e.prob_sum -. 1.0) <= 1e-9
        && Float.equal e.value e0.value
        && e.twoq = e0.twoq)
        "reliability: %s on %s: sum %.12f, value %h vs %h" j.label (Isa.Set.name j.set)
        e.prob_sum e.value e0.value)
    (List.combine env.jobs r0.evals)
    rd.evals;
  List.iter2
    (fun (_, t0) (_, t) ->
      op c
        (Float.is_finite t.overlap && t.overlap > 0.0 && Float.equal t.overlap t0.overlap)
        "reliability: trajectory overlap %h vs %h" t.overlap t0.overlap)
    r0.trajs rd.trajs

let digest env r0 =
  let b = Buffer.create 512 in
  List.iter2
    (fun j e ->
      Printf.bprintf b "%s/%s:%s:%d;" j.label (Isa.Set.name j.set) (exact e.value) e.twoq)
    env.jobs r0.evals;
  List.iter
    (fun f -> Printf.bprintf b "fh/%s:%s:%d;" f.fh_name (exact f.xeb) f.fh_twoq)
    r0.fh;
  digest_hex (Buffer.contents b)

(* Rounds until [stop rounds_done seconds_spent] (at least one). *)
let timed env c ~seed ~stop =
  let rec go r acc spent =
    if acc <> [] && stop r spent then List.rev acc
    else begin
      let rd = round env ~seed in
      go (r + 1) (rd :: acc) (spent +. round_s rd)
    end
  in
  let rounds = go 0 [] 0.0 in
  let r0 = List.hd rounds in
  List.iter (check_round env c ~r0) rounds;
  rounds

let print_params env ~seed =
  section "reliability: parameters";
  kv "seed" "%d" seed;
  kv "density suites" "%d QV + %d 3-regular QAOA circuits at %d qubits" qv_count qaoa_count
    width;
  kv "sets" "QV: S1 Full_fSim; QAOA: S1 G7 Full_fSim";
  kv "evaluations per round" "%d (set, circuit) pairs" (List.length env.jobs);
  kv "trajectories per round" "%d (FH %d qubits, S2 and G7 x %d)"
    (List.length env.fh_sets * trajectories_per_set)
    fh_width trajectories_per_set;
  kv "domains" "%d (caller included)" (domains ())

let print_results env r0 =
  section "reliability: results (round 0)";
  List.iter2
    (fun j e ->
      kv
        (Printf.sprintf "%s %s" j.label (Isa.Set.name j.set))
        "%s %.6f, %d 2Q gates"
        (match j.metric with Hop -> "HOP" | Xed -> "XED")
        e.value e.twoq)
    env.jobs r0.evals;
  List.iter
    (fun f ->
      kv
        (Printf.sprintf "fh%d %s" fh_width f.fh_name)
        "XEB %.6f, %d 2Q gates" f.xeb f.fh_twoq)
    r0.fh;
  kv "digest" "%s" (digest env r0)

(* ---------- end-to-end run ---------- *)

let run c ~seed ~seconds =
  let env, setup_s = setup_median (setup ~seed) in
  print_params env ~seed;
  let _, m0 = Decompose.Cache.stats () in
  let rounds = timed env c ~seed ~stop:(fun _ spent -> spent >= seconds) in
  let timed_misses = snd (Decompose.Cache.stats ()) - m0 in
  check_ideal env c;
  check c (timed_misses = 0) "reliability: %d cache misses in the timed phase" timed_misses;
  print_results env (List.hd rounds);
  let count f = List.fold_left (fun a rd -> a + List.length (f rd)) 0 rounds in
  let time f = List.fold_left (fun a rd -> a +. f rd) 0.0 rounds in
  let ne = count (fun rd -> rd.evals) and te = time (fun rd -> rd.evals_s) in
  let nt = count (fun rd -> rd.trajs) and tt = time (fun rd -> rd.trajs_s) in
  section "reliability: end-to-end";
  kv "rounds" "%d" (List.length rounds);
  kv "evals_per_s" "%.3f 1/s (%d density evaluations in %.3f s)"
    (ratio (float_of_int ne) te)
    ne te;
  kv "trajectories_per_s" "%.3f 1/s (%d FH-%d trajectories in %.3f s)"
    (ratio (float_of_int nt) tt)
    nt fh_width tt;
  kv "timed-phase cache misses" "%d (NuOp calls: none)" timed_misses;
  end_to_end c ~setup_s ~unit_name:"simulations" ~units:(ne + nt) ~elapsed:(te +. tt)
    ~rates:(List.map (fun rd -> ratio (float_of_int (units rd)) (round_s rd)) rounds)
    (* latency of the unit a study's caller waits on: one (set, circuit)
       evaluation, warm compile to metric.  Trajectories are steps of the
       FH evaluation and count toward throughput only; mixing the two
       would put the median in the gap between their latency clusters. *)
    ~latencies:(List.concat_map (fun rd -> List.map (fun e -> e.latency) rd.evals) rounds)
    ()

(* ---------- traced run ---------- *)

let run_traced c ~seed ~seconds ~trace_path =
  let env = setup ~seed () in
  print_params env ~seed;
  let half = Float.max 1.0 (seconds /. 2.0) in
  let per_unit rounds =
    ratio
      (List.fold_left (fun a rd -> a +. round_s rd) 0.0 rounds)
      (float_of_int (List.fold_left (fun a rd -> a + units rd) 0 rounds))
  in
  let plain = timed env c ~seed ~stop:(fun _ spent -> spent >= half) in
  check_ideal env c;
  let h0, m0 = Decompose.Cache.stats () in
  let t0 = now () in
  (* the same rounds again under the trace *)
  let traced, check_result, tr =
    Layers.traced trace_path (fun () ->
        timed env c ~seed ~stop:(fun r _ -> r >= List.length plain))
  in
  let wall = now () -. t0 in
  let h1, m1 = Decompose.Cache.stats () in
  let hits = h1 - h0 and misses = m1 - m0 in
  Layers.validated c check_result;
  check c (misses = 0) "reliability: %d cache misses in the traced phase" misses;
  let evals = List.concat_map (fun rd -> rd.evals) traced in
  let fh = List.concat_map (fun rd -> rd.fh) traced in
  let trajs = List.concat_map (fun rd -> List.map snd rd.trajs) traced in
  let pass_ms name =
    List.concat_map (fun e -> e.passes) evals
    |> List.filter_map (fun (p : Compiler.Pass_manager.pass_metrics) ->
           if p.pass_name = name then Some p.time_s else None)
    |> mean
    |> ( *. ) 1000.0
  in
  let total f g =
    List.fold_left (fun a e -> a +. f e) 0.0 evals
    +. List.fold_left (fun a x -> a +. g x) 0.0 fh
  in
  let state_s = total (fun e -> e.state_s) (fun x -> x.fh_state_s) in
  let state_work = total (fun e -> e.state_work) (fun x -> x.fh_state_work) in
  section "reliability: traced phase";
  kv "cache lookups" "%d (%d hits, %d misses)" (hits + misses) hits misses;
  kv "statevector work" "%.3g amplitude-gates in %.3f s" state_work state_s;
  Layers.overhead ~untraced:(per_unit plain) ~traced:(per_unit traced)
  @ [
      ("decompose.cache.misses", float_of_int misses);
      ( "decompose.cache.hit_ratio",
        ratio (float_of_int hits) (float_of_int (hits + misses)) );
      ("concurrent.pool.busy_share", Layers.pool_busy_share tr);
      ("compiler.compile_ms.p50", 1000.0 *. median (List.map (fun e -> e.compile_s) evals));
      ("compiler.pass.place_ms", pass_ms "place");
      ("compiler.pass.route_ms", pass_ms "route");
      ("compiler.pass.lower_ms", pass_ms "lower");
      ("compiler.pass.compact_ms", pass_ms "compact");
      ("compiler.pass.schedule_ms", pass_ms "schedule");
      ( "sim.density.ms_per_circuit",
        1000.0 *. mean (List.map (fun e -> e.density_s) evals) );
      ( "sim.density.minor_words_per_circuit",
        mean (List.map (fun e -> e.density_words) evals) );
      ("sim.state.ns_per_amp_gate", 1e9 *. ratio state_s state_work);
      ( "sim.trajectory.ms_per_trajectory",
        1000.0 *. mean (List.map (fun t -> t.traj_s) trajs) );
      ( "sim.trajectory.minor_words_per_trajectory",
        mean (List.map (fun t -> t.traj_words) trajs) );
      ( "sim.busy_share",
        ratio (Layers.get tr.Layers.busy "sim") (wall *. float_of_int (domains ())) );
    ]
  @ Layers.layer_values tr
