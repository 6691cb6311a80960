(* Differential-oracle catalogue.

   Every property here checks one layer of the stack against an
   INDEPENDENT reference — a schoolbook formula, an invariance law, a
   different algorithm for the same object, or a round trip — rather
   than against the layer's own output.  A bug injected into Mat, Weyl,
   Nuop, the simulators or the serializers breaks the agreement and
   surfaces as a shrunk, seed-replayable Proptest counterexample.

   Case counts are deliberately small (CI runs the whole catalogue on
   every build); NUOP_PROPTEST_COUNT scales them up for soak runs. *)

open Linalg
module G = Proptest.Gen

let test = Proptest.test
let arb = Proptest.arbitrary

(* ---------- generators and printers ---------- *)

let complex_entry rng =
  { Complex.re = Rng.uniform rng (-1.0) 1.0; im = Rng.uniform rng (-1.0) 1.0 }

let random_mat n rng = Mat.init n n (fun _ _ -> complex_entry rng)
let pm = Mat.to_string
let pm2 (a, b) = Printf.sprintf "A =\n%s\nB =\n%s" (pm a) (pm b)

(* a random square pair of matching dimension *)
let mat_pair = G.bind (G.int_range 2 5) (fun n -> G.pair (random_mat n) (random_mat n))

(* (u, u dressed with single-qubit gates on both sides) *)
let dressed rng =
  let u = G.su4 rng in
  let a = G.su2 rng and b = G.su2 rng in
  let c = G.su2 rng and d = G.su2 rng in
  (u, Mat.mul (Mat.kron a b) (Mat.mul u (Mat.kron c d)))

let close ?(eps = 1e-9) x y = Float.abs (x -. y) <= eps

(* ---------- Mat: algebra against schoolbook references ---------- *)

(* the definition of the product, with none of mul's loop blocking *)
let mul_reference a b =
  Mat.init (Mat.rows a) (Mat.cols b) (fun i j ->
      let acc = ref Complex.zero in
      for l = 0 to Mat.cols a - 1 do
        acc := Complex.add !acc (Complex.mul (Mat.get a i l) (Mat.get b l j))
      done;
      !acc)

let mat =
  [
    test "mul matches the schoolbook product" ~count:25
      (arb ~print:pm2 mat_pair)
      (fun (a, b) -> Mat.equal ~eps:1e-10 (Mat.mul a b) (mul_reference a b));
    test "mul_into agrees with mul" ~count:25
      (arb ~print:pm2 mat_pair)
      (fun (a, b) ->
        let dst = Mat.create (Mat.rows a) (Mat.cols b) in
        Mat.mul_into ~dst a b;
        Mat.equal ~eps:0.0 dst (Mat.mul a b));
    test "hs_inner is trace(A^dag B)" ~count:25
      (arb ~print:pm2 mat_pair)
      (fun (a, b) ->
        Complex.norm
          (Complex.sub (Mat.hs_inner a b) (Mat.trace (Mat.mul (Mat.dagger a) b)))
        < 1e-10);
    test "dagger is an involution" ~count:25
      (arb ~print:pm (random_mat 4))
      (fun a -> Mat.equal ~eps:0.0 (Mat.dagger (Mat.dagger a)) a);
    test "kron mixed-product identity" ~count:20
      (arb
         ~print:(fun (a, b, (c, d)) ->
           Printf.sprintf "%s%s%s%s" (pm a) (pm b) (pm c) (pm d))
         (G.triple (random_mat 2) (random_mat 2) (G.pair (random_mat 2) (random_mat 2))))
      (fun (a, b, (c, d)) ->
        Mat.equal ~eps:1e-10
          (Mat.mul (Mat.kron a b) (Mat.kron c d))
          (Mat.kron (Mat.mul a c) (Mat.mul b d)));
    test "det is multiplicative" ~count:20
      (arb ~print:pm2 (G.pair (random_mat 3) (random_mat 3)))
      (fun (a, b) ->
        Complex.norm
          (Complex.sub (Mat.det (Mat.mul a b)) (Complex.mul (Mat.det a) (Mat.det b)))
        < 1e-8);
    test "solve round-trips" ~count:20
      (arb ~print:pm2 (G.pair (G.unitary 4) (random_mat 4)))
      (fun (u, b) -> Mat.equal ~eps:1e-8 (Mat.mul u (Mat.solve u b)) b);
    test "haar samples are unitary, su4 has det 1" ~count:20
      (arb ~print:pm G.su4)
      (fun u ->
        Mat.is_unitary ~eps:1e-8 u
        && Complex.norm (Complex.sub (Mat.det u) Complex.one) < 1e-8);
    test "product and kron of unitaries stay unitary" ~count:20
      (arb ~print:pm2 (G.pair (G.unitary 2) (G.unitary 2)))
      (fun (a, b) ->
        Mat.is_unitary ~eps:1e-7 (Mat.mul a b) && Mat.is_unitary ~eps:1e-7 (Mat.kron a b));
    test "frobenius norm is unitarily invariant" ~count:20
      (arb ~print:pm2 (G.pair (G.unitary 3) (random_mat 3)))
      (fun (u, a) ->
        close ~eps:1e-8 (Mat.frobenius_norm (Mat.mul u a)) (Mat.frobenius_norm a));
    test "unitary eigenvalues lie on the unit circle" ~count:15
      (arb ~print:pm (G.unitary 4))
      (fun u ->
        Array.for_all
          (fun e -> Float.abs (Complex.norm e -. 1.0) < 1e-5)
          (Eigen.eigenvalues u));
  ]

(* ---------- Weyl: canonicalization invariants ---------- *)

let coords3 u =
  let c1, c2, c3 = Decompose.Weyl.coordinates u in
  (c1, c2, Float.abs c3)

let weyl =
  [
    test "coordinates are canonically ordered" ~count:12
      (arb ~print:pm G.su4)
      (fun u ->
        let c1, c2, c3 = Decompose.Weyl.coordinates u in
        c1 >= c2 -. 1e-9
        && c2 >= Float.abs c3 -. 1e-9
        && c1 <= (Float.pi /. 2.0) +. 1e-9);
    test "canonical gate represents the class" ~count:8
      (arb ~print:pm G.su4)
      (fun u ->
        let c1, c2, c3 = Decompose.Weyl.coordinates u in
        Decompose.Weyl.locally_equivalent u (Decompose.Weyl.canonical_gate c1 c2 c3));
    test "coordinates survive local dressing" ~count:8
      (arb ~print:(fun (u, v) -> pm2 (u, v)) dressed)
      (fun (u, v) ->
        let a1, a2, a3 = coords3 u and b1, b2, b3 = coords3 v in
        close ~eps:1e-6 a1 b1 && close ~eps:1e-6 a2 b2 && close ~eps:1e-6 a3 b3);
    test "cnot_count is in 0..3 and dressing-invariant" ~count:8
      (arb ~print:(fun (u, v) -> pm2 (u, v)) dressed)
      (fun (u, v) ->
        let ku = Decompose.Weyl.cnot_count u in
        ku >= 0 && ku <= 3 && ku = Decompose.Weyl.cnot_count v);
    test "local unitaries need zero CNOTs" ~count:10
      (arb ~print:pm G.local_su4)
      (fun u -> Decompose.Weyl.is_local u && Decompose.Weyl.cnot_count u = 0);
  ]

(* ---------- Optimize: BFGS on known-convex objectives ---------- *)

type quadratic = { a : float array; c : float array; x0 : float array }

let quadratic_gen rng =
  let n = 2 + Rng.int rng 4 in
  {
    a = Array.init n (fun _ -> Rng.uniform rng 0.5 3.0);
    c = Array.init n (fun _ -> Rng.uniform rng (-2.0) 2.0);
    x0 = Array.init n (fun _ -> Rng.uniform rng (-3.0) 3.0);
  }

let quadratic_f q x =
  let acc = ref 0.0 in
  Array.iteri (fun i ai -> acc := !acc +. (ai *. (x.(i) -. q.c.(i)) ** 2.0)) q.a;
  !acc

let print_quadratic q =
  let arr v =
    String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%.6g") v))
  in
  Printf.sprintf "a=[%s] c=[%s] x0=[%s]" (arr q.a) (arr q.c) (arr q.x0)

let optimize =
  [
    (* the stagnation-exit regression: an absolute f-decrease cutoff
       aborts these runs at objective values ~1e-12 with the gradient
       still orders of magnitude above grad_tol *)
    test "bfgs reaches grad_tol on convex quadratics" ~count:25
      (arb ~print:print_quadratic quadratic_gen)
      (fun q ->
        let r = Optimize.Bfgs.minimize (quadratic_f q) q.x0 in
        r.Optimize.Bfgs.outcome = Optimize.Bfgs.Converged
        && r.Optimize.Bfgs.f < 1e-10
        && Array.for_all2 (fun xi ci -> Float.abs (xi -. ci) < 1e-4) r.Optimize.Bfgs.x q.c);
    test "bfgs never increases the objective" ~count:25
      (arb ~print:print_quadratic quadratic_gen)
      (fun q ->
        let r = Optimize.Bfgs.minimize (quadratic_f q) q.x0 in
        r.Optimize.Bfgs.f <= quadratic_f q q.x0 +. 1e-12);
  ]

(* ---------- Decompose: NuOp vs KAK vs the Cirq-like baseline ---------- *)

let fast_nuop =
  {
    Decompose.Nuop.default_options with
    starts = 3;
    max_layers = 3;
    bfgs = { Optimize.Bfgs.default_options with max_iter = 100 };
  }

(* F_d recomputed from scratch: the unitary the parameters implement
   against the target, through hs_inner *)
let fidelity_of u target = Complex.norm (Mat.hs_inner u target) /. 4.0

let decompose =
  [
    test "kak reconstructs the target" ~count:5
      (arb ~print:pm G.su4)
      (fun u ->
        let k = Decompose.Kak.decompose u in
        Mat.equal_up_to_phase ~eps:1e-5 (Decompose.Kak.reconstruct k) u);
    test "nuop curve fidelities match the implemented unitary" ~count:3
      (arb
         ~print:(fun (gt, u) -> Gates.Gate_type.name gt ^ " on\n" ^ pm u)
         (G.pair G.fixed_gate_type G.su4))
      (fun (gate_type, target) ->
        let curve = Decompose.Nuop.fd_curve ~options:fast_nuop gate_type ~target in
        Array.for_all
          (fun (layers, params, fd) ->
            let d = { Decompose.Nuop.gate_type; layers; params; fd; fh = 1.0 } in
            let recomputed =
              fidelity_of (Decompose.Nuop.implemented_unitary d) target
            in
            fd >= -1e-9 && fd <= 1.0 +. 1e-9 && close ~eps:1e-6 fd recomputed)
          curve);
    test "nuop never beats the SBM lower bound" ~count:4
      (arb ~print:pm G.su4)
      (fun u ->
        let bound = Decompose.Weyl.cnot_count u in
        let d =
          Decompose.Nuop.decompose_exact ~options:fast_nuop ~threshold:(1.0 -. 1e-7)
            Gates.Gate_type.s3 ~target:u
        in
        (* only trust the comparison when the optimizer converged *)
        d.Decompose.Nuop.fd < 1.0 -. 1e-7 || d.Decompose.Nuop.layers >= bound);
    test "cirq-like CZ count equals the weyl bound" ~count:6
      (arb ~print:pm G.su4)
      (fun u ->
        match Decompose.Cirq_like.decompose ~target_gate:Gates.Gate_type.s3 u with
        | None -> false
        | Some r ->
          r.Decompose.Cirq_like.gate_count = Decompose.Weyl.cnot_count u
          && r.Decompose.Cirq_like.decomposition_error <= Decompose.Cirq_like.kak_error);
    (* differential agreement on one-gate-expressible targets: weyl,
       the cirq baseline and nuop must all certify a single layer *)
    test "one-CZ targets: weyl, cirq and nuop agree" ~count:3
      (arb ~print:pm
         (fun rng ->
           let cz = Gates.Gate_type.instantiate Gates.Gate_type.s3 [||] in
           let a = G.su2 rng and b = G.su2 rng in
           let c = G.su2 rng and d = G.su2 rng in
           Mat.mul (Mat.kron a b) (Mat.mul cz (Mat.kron c d))))
      (fun u ->
        Decompose.Weyl.cnot_count u = 1
        && (match Decompose.Cirq_like.decompose ~target_gate:Gates.Gate_type.s3 u with
           | Some r -> r.Decompose.Cirq_like.gate_count = 1
           | None -> false)
        &&
        let d =
          Decompose.Nuop.decompose_exact
            ~options:{ fast_nuop with starts = 4 }
            ~threshold:(1.0 -. 1e-5) Gates.Gate_type.s3 ~target:u
        in
        d.Decompose.Nuop.layers = 1 && d.Decompose.Nuop.fd >= 1.0 -. 1e-5);
    test "template evaluation is unitary" ~count:15
      (arb
         ~print:(fun (layers, _) -> Printf.sprintf "%d layers" layers)
         (G.pair (G.int_range 0 3) (G.array_of ~len:(G.return 64) G.angle)))
      (fun (layers, angles) ->
        let t = Decompose.Template.create Gates.Gate_type.s1 ~layers in
        let params =
          Array.init (Decompose.Template.param_count t) (fun i -> angles.(i))
        in
        Mat.is_unitary ~eps:1e-8 (Decompose.Template.evaluate t params));
  ]

(* ---------- Sim: three simulators, one answer ---------- *)

let linf a b =
  let m = ref 0.0 in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
  !m

let noise ~twoq ~oneq =
  {
    Sim.Noisy.twoq_error = (fun _ _ -> twoq);
    oneq_error = (fun _ -> oneq);
    readout_error = (fun _ -> 0.0);
    t1 = (fun _ -> infinity);
    t2 = (fun _ -> infinity);
    duration_1q = 0.0;
    duration_2q = 0.0;
  }

let circuit_arb ?(n_qubits = 3) ?(max_length = 12) () =
  arb ~shrink:Proptest.Shrink.circuit ~print:Qcir.Circuit.to_string
    (G.circuit ~n_qubits ~max_length ())

let sim =
  [
    test "state and density agree on ideal circuits" ~count:10
      (circuit_arb ())
      (fun c ->
        linf
          (Sim.State.probabilities (Sim.State.run_circuit c))
          (Sim.Density.probabilities (Sim.Density.run_circuit c))
        < 1e-9);
    test "of_statevector preserves the state" ~count:10
      (circuit_arb ())
      (fun c ->
        let s = Sim.State.run_circuit c in
        let rho = Sim.Density.of_statevector s in
        close ~eps:1e-9 1.0 (Sim.Density.purity rho)
        && linf (Sim.State.probabilities s) (Sim.Density.probabilities rho) < 1e-9);
    test "zero-noise trajectory is the pure state" ~count:6
      (circuit_arb ())
      (fun c ->
        let traj = Sim.Trajectory.run_one (Rng.create 1) Sim.Noisy.ideal c in
        close ~eps:1e-9 1.0 (Sim.State.fidelity_pure traj (Sim.State.run_circuit c)));
    test "density and trajectory agree on noisy circuits" ~count:2
      (circuit_arb ~n_qubits:2 ~max_length:6 ())
      (fun c ->
        let model = noise ~twoq:0.15 ~oneq:0.01 in
        let exact = Sim.Density.probabilities (Sim.Noisy.run model c) in
        let mc =
          Sim.Trajectory.mean_probabilities ~seed:3 ~trajectories:2000 model c
        in
        linf exact mc < 0.05);
  ]

(* ---------- Roundtrip: serializers against themselves ---------- *)

let base_name name =
  match String.index_opt name '(' with Some k -> String.sub name 0 k | None -> name

let same_circuit a b =
  Qcir.Circuit.n_qubits a = Qcir.Circuit.n_qubits b
  && Qcir.Circuit.length a = Qcir.Circuit.length b
  && List.for_all2
       (fun ia ib ->
         let ga = Qcir.Instr.gate ia and gb = Qcir.Instr.gate ib in
         let pa = Gates.Gate.params ga and pb = Gates.Gate.params gb in
         base_name (Gates.Gate.name ga) = base_name (Gates.Gate.name gb)
         && Qcir.Instr.qubits ia = Qcir.Instr.qubits ib
         && Array.length pa = Array.length pb
         && Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) pa pb)
       (Qcir.Circuit.instrs a) (Qcir.Circuit.instrs b)

(* QASM text of a random circuit, put through 1-3 random mutations:
   truncation, deletion, insertion, or replacement *)
let garbled_qasm rng =
  let text = ref (Qcir.Qasm.to_string (G.circuit () rng)) in
  let mutations = 1 + Rng.int rng 3 in
  for _ = 1 to mutations do
    let t = !text in
    let n = String.length t in
    if n > 0 then
      text :=
        (match Rng.int rng 4 with
        | 0 -> String.sub t 0 (Rng.int rng n)
        | 1 ->
          let i = Rng.int rng n in
          String.sub t 0 i ^ String.sub t (i + 1) (n - i - 1)
        | 2 ->
          let i = Rng.int rng (n + 1) in
          let c = Char.chr (32 + Rng.int rng 95) in
          String.sub t 0 i ^ String.make 1 c ^ String.sub t i (n - i)
        | _ ->
          let i = Rng.int rng n in
          let c = Char.chr (32 + Rng.int rng 95) in
          String.sub t 0 i ^ String.make 1 c ^ String.sub t (i + 1) (n - i - 1))
  done;
  !text

let json_leaf rng =
  match Rng.int rng 5 with
  | 0 -> Njson.Null
  | 1 -> Njson.Bool (Rng.bool rng)
  | 2 -> Njson.Int (Rng.int rng 2_000_001 - 1_000_000)
  | 3 -> Njson.Float (Rng.uniform rng (-1e6) 1e6 *. Float.exp (Rng.uniform rng (-20.0) 5.0))
  | _ ->
    Njson.String
      (String.init (Rng.int rng 12) (fun _ -> Char.chr (32 + Rng.int rng 95)))

let rec json_gen depth rng =
  if depth = 0 || Rng.int rng 3 = 0 then json_leaf rng
  else
    match Rng.bool rng with
    | true -> Njson.List (List.init (Rng.int rng 4) (fun _ -> json_gen (depth - 1) rng))
    | false ->
      Njson.Obj
        (List.init (Rng.int rng 4) (fun i ->
             (Printf.sprintf "k%d" i, json_gen (depth - 1) rng)))

let report_gen rng =
  let b = Core.Report.Builder.create () in
  Core.Report.Builder.heading b "generated";
  Core.Report.Builder.table b
    ~header:[ "x"; "y" ]
    (List.init (Rng.int rng 4) (fun i ->
         [ string_of_int i; Core.Report.f3 (Rng.uniform rng (-10.0) 10.0) ]));
  Core.Report.Builder.series b ~name:"curve"
    (List.init
       (1 + Rng.int rng 5)
       (fun i -> (float_of_int i, Rng.uniform rng 0.0 1.0)));
  Core.Report.Builder.metric b "score" (Rng.uniform rng 0.0 1.0);
  Core.Report.Builder.doc b

let roundtrip =
  [
    test "qasm round-trips circuits" ~count:30 (circuit_arb ~n_qubits:4 ())
      (fun c -> same_circuit c (Qcir.Qasm.of_string (Qcir.Qasm.to_string c)));
    test "garbled qasm never crashes generically" ~count:60
      (arb ~print:(Printf.sprintf "%S") garbled_qasm)
      (fun text ->
        match Qcir.Qasm.of_string_result text with
        | Ok _ -> true
        | Error e -> e.Qcir.Qasm.line >= 1 && e.Qcir.Qasm.column >= 1);
    test "json trees round-trip" ~count:40
      (arb
         ~print:(fun j -> Njson.to_string j)
         (json_gen 3))
      (fun j -> Njson.of_string (Njson.to_string j) = j);
    test "report documents round-trip through json" ~count:10
      (arb
         ~print:(fun doc -> Njson.to_string (Core.Report.to_json doc))
         report_gen)
      (fun doc ->
        let j = Core.Report.to_json ~name:"prop" ~seconds:0.0 doc in
        Njson.of_string (Njson.to_string j) = j);
  ]

(* ---------- Compiler: pass stack vs retained monolith ---------- *)

let same_compiled (a : Compiler.Pipeline.compiled) (b : Compiler.Pipeline.compiled) =
  let open Compiler.Pipeline in
  same_circuit a.circuit b.circuit
  && a.twoq_errors = b.twoq_errors
  && a.qubit_map = b.qubit_map
  && a.final_layout = b.final_layout
  && a.swap_count = b.swap_count
  && a.twoq_count = b.twoq_count
  && a.duration = b.duration
  && a.critical_depth = b.critical_depth

let compiler =
  [
    test "pass stack matches the reference compiler" ~count:2
      (circuit_arb ~n_qubits:3 ~max_length:8 ())
      (fun circuit ->
        let options =
          { Compiler.Pipeline.default_options with nuop = fast_nuop }
        in
        let device = Device.sycamore_line 4 in
        let cal = Device.calibration device in
        let isa = Isa.Set.g2 in
        let a = Compiler.Pipeline.compile ~options ~device ~isa circuit in
        let b = Compiler.Pipeline.compile_reference ~options ~cal ~isa circuit in
        same_compiled a b);
  ]

(* ---------- Schedule: timing layer against its laws ---------- *)

let uniform_durations = Schedule.uniform ~duration_1q:20e-9 ~duration_2q:40e-9

let schedule_group =
  [
    (* ASAP moments must be dependency-sound: no qubit acts twice in a
       moment, per-qubit program order is preserved across moments, and
       with uniform durations the moment count is exactly the circuit
       depth *)
    test "moments are dependency-sound" ~count:20
      (circuit_arb ~n_qubits:4 ~max_length:16 ())
      (fun c ->
        let s = Schedule.of_circuit ~durations:uniform_durations c in
        let sound = ref true in
        let last = Array.make (Qcir.Circuit.n_qubits c) (-1) in
        Schedule.iter_moments
          (fun m ->
            let seen = Hashtbl.create 8 in
            List.iter
              (fun (idx, instr) ->
                Array.iter
                  (fun q ->
                    if Hashtbl.mem seen q then sound := false;
                    Hashtbl.replace seen q ();
                    if idx <= last.(q) then sound := false;
                    last.(q) <- idx)
                  (Qcir.Instr.qubits instr))
              m.Schedule.instrs)
          s;
        !sound
        && Schedule.depth s = Qcir.Circuit.depth c
        && Schedule.instruction_count s = Qcir.Circuit.length c);
    (* per-qubit accounting closes: busy + idle = total, exactly *)
    test "busy + idle = total duration per qubit" ~count:15
      (circuit_arb ~n_qubits:4 ~max_length:16 ())
      (fun c ->
        let s = Schedule.of_circuit ~durations:uniform_durations c in
        let ok = ref true in
        for q = 0 to Schedule.n_qubits s - 1 do
          if
            not
              (close ~eps:1e-15
                 (Schedule.busy_time s q +. Schedule.idle_time s q)
                 (Schedule.total_duration s))
          then ok := false
        done;
        !ok);
    (* with decoherence off, the moment-ordered scheduled runner and the
       program-ordered plain runner compose the same commuting channels:
       identical output within float tolerance *)
    test "run_scheduled = run when T1/T2 are infinite" ~count:8
      (circuit_arb ())
      (fun c ->
        let model =
          {
            (noise ~twoq:0.03 ~oneq:0.002) with
            Sim.Noisy.duration_1q = 20e-9;
            duration_2q = 40e-9;
          }
        in
        linf
          (Sim.Density.probabilities (Sim.Noisy.run model c))
          (Sim.Density.probabilities (Sim.Noisy.run_scheduled model c))
        < 1e-9);
    (* the analytic product tracks the exponential-cost density
       simulation: ESP within 5% absolute of both the state fidelity and
       the Bhattacharyya distribution fidelity on small noisy circuits *)
    test "ESP tracks density-sim success within 5%" ~count:6
      (circuit_arb ~n_qubits:3 ~max_length:10 ())
      (fun c ->
        let twoq = 0.004 and oneq = 0.0004 in
        let t1 = 40e-6 and t2 = 30e-6 in
        let model =
          {
            (noise ~twoq ~oneq) with
            Sim.Noisy.t1 = (fun _ -> t1);
            t2 = (fun _ -> t2);
            duration_1q = 25e-9;
            duration_2q = 40e-9;
          }
        in
        let schedule = Sim.Noisy.model_schedule model c in
        let twoq_errors = Array.make (Qcir.Circuit.length c) twoq in
        let esp =
          (Metrics.Esp.estimate ~twoq_errors
             ~oneq_error:(fun _ -> oneq)
             ~readout_error:(fun _ -> 0.0)
             ~t1:(fun _ -> t1)
             ~t2:(fun _ -> t2)
             schedule)
            .Metrics.Esp.esp
        in
        let rho = Sim.Noisy.run_scheduled ~schedule model c in
        let ideal = Sim.State.run_circuit c in
        let state_fid = Sim.Density.fidelity_with_pure rho ideal in
        let dist_fid =
          Metrics.Success.distribution_fidelity
            ~ideal:(Sim.State.probabilities ideal)
            ~noisy:(Sim.Density.probabilities rho)
        in
        Float.abs (esp -. state_fid) <= 0.05 && Float.abs (esp -. dist_fid) <= 0.05);
  ]

(* ---------- Isa: set design against its invariants ---------- *)

(* scoring runs many (type, unitary) decompositions per case; keep each
   one tiny *)
let isa_nuop =
  {
    Decompose.Nuop.default_options with
    starts = 2;
    max_layers = 2;
    bfgs = { Optimize.Bfgs.default_options with max_iter = 60 };
  }

let isa_search_options =
  { Isa.Search.default_options with nuop = isa_nuop }

let sorted_type_names set =
  List.sort compare (List.map Gates.Gate_type.name (Isa.Set.gate_types set))

let weakly_dominates (c1, v1) (c2, v2) = c1 <= c2 && v1 >= v2

let isa =
  [
    (* a search that can only pick from a Table II set's own types must
       reconstruct exactly that set at its size level *)
    test "search over a Table II pool returns that set" ~count:3
      (arb
         ~print:(fun (set, _) -> Isa.Set.name set)
         (G.pair
            (G.choosel Isa.Set.[ s3; g1; r1; g2 ])
            (G.list_of ~len:(G.return 2) G.su4)))
      (fun (set, us) ->
        let samples = [ ("QV", us) ] in
        let topology = Device.Topology.grid 3 3 in
        let points =
          Isa.Search.run ~options:isa_search_options ~samples ~topology
            (Isa.Set.gate_types set)
        in
        List.length points = Isa.Set.size set
        &&
        let last = List.nth points (List.length points - 1) in
        sorted_type_names last.Isa.Search.set = sorted_type_names set);
    (* every frontier point is undominated in the input, and every input
       point is weakly dominated by some frontier point *)
    test "pareto frontier is undominated and covering" ~count:50
      (arb
         (G.list_of ~len:(G.int_range 1 12)
            (G.pair (G.float_range 0.0 10.0) (G.float_range 0.0 10.0))))
      (fun pts ->
        let front = Isa.Search.pareto_by ~cost:fst ~value:snd pts in
        (pts = [] || front <> [])
        && List.for_all
             (fun p ->
               not
                 (List.exists
                    (fun q -> weakly_dominates q p && (fst q < fst p || snd q > snd p))
                    pts))
             front
        && List.for_all
             (fun p -> List.exists (fun f -> weakly_dominates f p) front)
             pts);
    (* the Domain-pool determinism law, extended to the scorer *)
    test "score is pool-size invariant" ~count:3
      (arb (G.list_of ~len:(G.return 3) G.su4))
      (fun us ->
        let samples = [ ("QV", us) ] in
        let set = Isa.Set.g1 in
        Decompose.Cache.clear ();
        let a = Isa.Score.score ~options:isa_nuop ~domains:1 ~samples set in
        Decompose.Cache.clear ();
        let b = Isa.Score.score ~options:isa_nuop ~domains:4 ~samples set in
        a = b);
  ]

(* ---------- Device: snapshots against their laws ---------- *)

(* a registry device, randomly sized and randomly aged *)
let device_gen rng =
  let names = Device.Registry.names () in
  let name = List.nth names (Rng.int rng (List.length names)) in
  let qubits = 4 + Rng.int rng 3 in
  let d = Device.Registry.build ~qubits name in
  if Rng.bool rng then
    let hours = Rng.uniform rng 1.0 72.0 in
    Calibration.Drift.perturb rng Calibration.Drift.default ~hours d
  else d

let print_device d =
  Printf.sprintf "%s (%d qubits, drifted %.2fh)" (Device.name d)
    (Device.n_qubits d)
    (Device.provenance d).Device.Provenance.drifted_hours

(* exact structural agreement of everything a snapshot stores *)
let same_cal a b =
  let module C = Device.Calibration in
  C.oneq_errors a = C.oneq_errors b
  && C.readout_errors a = C.readout_errors b
  && C.t1_times a = C.t1_times b
  && C.t2_times a = C.t2_times b
  && C.duration_1q a = C.duration_1q b
  && C.duration_2q a = C.duration_2q b
  && Device.Topology.edges (C.topology a) = Device.Topology.edges (C.topology b)
  && C.twoq_error_entries a = C.twoq_error_entries b
  && C.twoq_duration_entries a = C.twoq_duration_entries b
  && C.family_error_scale a = C.family_error_scale b
  && List.for_all
       (fun e -> C.family_base_error a e = C.family_base_error b e)
       (Device.Topology.edges (C.topology a))

let device =
  [
    (* serialization against itself: every float a snapshot stores must
       survive to_string/of_string bit for bit *)
    test "json snapshots round-trip exactly" ~count:10
      (arb ~print:print_device device_gen)
      (fun d ->
        let d' = Device.of_string (Device.to_string d) in
        Device.name d' = Device.name d
        && Device.n_qubits d' = Device.n_qubits d
        && (Device.provenance d').Device.Provenance.drifted_hours
           = (Device.provenance d).Device.Provenance.drifted_hours
        && same_cal (Device.calibration d) (Device.calibration d'));
    (* the registry is total over its own names, case-insensitively *)
    test "registry builds every advertised name" ~count:5
      (arb ~print:Fun.id
         (fun rng ->
           let names = Device.Registry.names () in
           let name = List.nth names (Rng.int rng (List.length names)) in
           String.map
             (fun c -> if Rng.bool rng then Char.uppercase_ascii c else c)
             name))
      (fun name ->
        match Device.Registry.find name with
        | None -> false
        | Some e ->
          let d = e.Device.Registry.build e.Device.Registry.default_qubits in
          Device.n_qubits d > 0 && Device.name d <> "");
    (* drift is pure and only ever inflates: every stored error and the
       family scale gain a multiplier >= 1, hours accumulate, and the
       input snapshot is untouched *)
    test "drift inflates errors monotonically" ~count:10
      (arb
         ~print:(fun (d, hours) ->
           Printf.sprintf "%s +%.2fh" (print_device d) hours)
         (G.pair device_gen (G.float_range 1.0 48.0)))
      (fun (d, hours) ->
        let module C = Device.Calibration in
        let before = C.twoq_error_entries (Device.calibration d) in
        let scale_before = C.family_error_scale (Device.calibration d) in
        let age_before = (Device.provenance d).Device.Provenance.drifted_hours in
        let d' =
          Calibration.Drift.perturb (Rng.create 17) Calibration.Drift.default
            ~hours d
        in
        let after = C.twoq_error_entries (Device.calibration d') in
        List.length before = List.length after
        && List.for_all2
             (fun (ea, na, va) (eb, nb, vb) ->
               ea = eb && na = nb && vb >= va -. 1e-15)
             before after
        && C.family_error_scale (Device.calibration d') >= scale_before
        && close ~eps:1e-12
             (Device.provenance d').Device.Provenance.drifted_hours
             (age_before +. hours)
        && C.twoq_error_entries (Device.calibration d) = before
        && C.family_error_scale (Device.calibration d) = scale_before);
  ]

(* ---------- Persist: on-disk curves against their laws ---------- *)

(* synthetic curves — persistence is agnostic to where a curve came
   from, so round-trip laws don't need to pay for real optimizations *)
let synthetic_curve =
  G.array_of
    ~len:(G.int_range 1 4)
    (G.map2
       (fun layers (params, fd) -> (layers, params, fd))
       (G.int_range 0 5)
       (G.pair
          (G.array_of ~len:(G.int_range 0 6) (G.float_range (-4.0) 4.0))
          (G.float_range 0.0 1.0)))

let synthetic_entries =
  G.map
    (fun curves -> List.mapi (fun i c -> (Printf.sprintf "key-%d|synthetic" i, c)) curves)
    (G.list_of ~len:(G.int_range 0 6) synthetic_curve)

let with_temp_curve_file f =
  let file = Filename.temp_file "nuop-curves" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () -> f file)

let print_entries entries =
  String.concat "; "
    (List.map
       (fun (k, c) -> Printf.sprintf "%s (%d points)" k (Array.length c))
       entries)

(* ways to damage a snapshot file; every one must load as a clean error *)
type corruption = Truncate of float | Wrong_schema | Garbage of string | Empty

let corruption_gen rng =
  match Rng.int rng 4 with
  | 0 -> Truncate (Rng.uniform rng 0.0 0.999)
  | 1 -> Wrong_schema
  | 2 ->
    let n = Rng.int rng 64 in
    Garbage (String.init n (fun _ -> Char.chr (32 + Rng.int rng 95)))
  | _ -> Empty

let print_corruption = function
  | Truncate f -> Printf.sprintf "Truncate %.3f" f
  | Wrong_schema -> "Wrong_schema"
  | Garbage s -> Printf.sprintf "Garbage %S" s
  | Empty -> "Empty"

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let persist =
  [
    (* the round-trip law: every key, layer count, parameter vector and
       fidelity float survives save -> load with exact bits *)
    test "snapshots round-trip entries exactly" ~count:25
      (arb ~print:print_entries synthetic_entries)
      (fun entries ->
        with_temp_curve_file (fun file ->
            Decompose.Persist.save file entries;
            match Decompose.Persist.load file with
            | Ok back -> back = entries
            | Error _ -> false));
    (* corruption tolerance: truncated, wrong-version, garbage and empty
       files are Errors (hence empty warm sets), never exceptions *)
    test "corrupted snapshots load as clean errors" ~count:40
      (arb
         ~print:(fun (entries, c) ->
           Printf.sprintf "%s / %s" (print_corruption c) (print_entries entries))
         (G.pair synthetic_entries corruption_gen))
      (fun (entries, corruption) ->
        with_temp_curve_file (fun file ->
            Decompose.Persist.save file entries;
            (match corruption with
            | Truncate frac ->
              let s = In_channel.with_open_bin file In_channel.input_all in
              write_file file
                (String.sub s 0 (int_of_float (frac *. float_of_int (String.length s))))
            | Wrong_schema ->
              write_file file {|{"schema": "nuop-curves/999", "entries": []}|}
            | Garbage s -> write_file file s
            | Empty -> write_file file "");
            match Decompose.Persist.load file with
            | Ok _ -> false
            | Error reason -> String.length reason > 0));
    (* merge semantics: a disk entry never clobbers the curve already in
       memory under the same key *)
    test "disk entries never clobber in-memory curves" ~count:15
      (arb
         ~print:(fun (a, b) ->
           Printf.sprintf "mem %d points / disk %d points" (Array.length a)
             (Array.length b))
         (G.pair synthetic_curve synthetic_curve))
      (fun (mem_curve, disk_curve) ->
        with_temp_curve_file (fun file ->
            with_temp_curve_file (fun file2 ->
                let key = "key-clobber|synthetic" in
                Decompose.Cache.clear ();
                Decompose.Persist.save file [ (key, disk_curve) ];
                let first = Decompose.Cache.merge_entries [ (key, mem_curve) ] in
                let merged = Decompose.Cache.load_from_file file in
                ignore (Decompose.Cache.save_to_file file2);
                Decompose.Cache.clear ();
                match Decompose.Persist.load file2 with
                | Ok [ (k, c) ] -> first = 1 && merged = 0 && k = key && c = mem_curve
                | Ok _ | Error _ -> false)));
    (* determinism end to end: a compile served entirely from a loaded
       snapshot equals the cold compile bit for bit, and the reuse is
       attributed to warm hits *)
    test "warmed compile equals cold compile bit for bit" ~count:2
      (circuit_arb ~n_qubits:3 ~max_length:8 ())
      (fun circuit ->
        with_temp_curve_file (fun file ->
            let options =
              { Compiler.Pipeline.default_options with nuop = fast_nuop }
            in
            let device = Device.sycamore_line 4 in
            let isa = Isa.Set.g2 in
            Decompose.Cache.clear ();
            let cold = Compiler.Pipeline.compile ~options ~device ~isa circuit in
            let saved = Decompose.Cache.save_to_file file in
            Decompose.Cache.clear ();
            let loaded = Decompose.Cache.load_from_file file in
            let warm = Compiler.Pipeline.compile ~options ~device ~isa circuit in
            let warm_hits = Decompose.Cache.warm_hits () in
            saved = loaded
            && Decompose.Cache.warm_count () = loaded
            && same_compiled cold warm
            && (saved = 0 || warm_hits > 0)));
  ]

(* ---------- Obs: telemetry against its own trace validator ---------- *)

(* a random span-nesting shape: each node is one [Obs.Span.with_] call
   wrapping its children *)
type span_shape = Node of span_shape list

let rec shape_size (Node kids) =
  1 + List.fold_left (fun acc k -> acc + shape_size k) 0 kids

let rec print_shape (Node kids) =
  Printf.sprintf "(%s)" (String.concat " " (List.map print_shape kids))

let rec span_shape_gen depth rng =
  let width = if depth <= 0 then 0 else Rng.int rng 4 in
  Node (List.init width (fun _ -> span_shape_gen (depth - 1) rng))

let rec build_spans depth (Node kids) =
  Obs.Span.with_
    (Printf.sprintf "verify.node.d%d" depth)
    (fun () -> List.iter (build_spans (depth + 1)) kids)

let with_temp_trace_file f =
  let file = Filename.temp_file "nuop-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () -> f file)

let obs_group =
  [
    (* structural law: a tree of [with_] calls produces a trace the
       validator accepts, with exactly one completed span per node *)
    test "span trees validate with exact span counts" ~count:20
      (arb ~print:print_shape (span_shape_gen 3))
      (fun shape ->
        with_temp_trace_file (fun file ->
            Obs.Trace.with_file file (fun () -> build_spans 0 shape);
            match Obs.Trace.check_file file with
            | Ok s -> s.Obs.Trace.spans = shape_size shape
            | Error _ -> false));
    (* atomicity: concurrent increments from Domain-pool workers are
       never lost — the counter total is exactly tasks * per_task *)
    test "counter sums are exact across domains" ~count:10
      (arb
         ~print:(fun (tasks, per) -> Printf.sprintf "%d tasks x %d incrs" tasks per)
         (G.pair (G.int_range 1 24) (G.int_range 1 200)))
      (fun (tasks, per) ->
        let c = Obs.Counter.create "verify.obs.hits" in
        Obs.Counter.reset c;
        ignore
          (Concurrent.Domain_pool.map_array ~domains:4
             (fun _ ->
               for _ = 1 to per do
                 Obs.Counter.incr c
               done)
             (Array.init tasks Fun.id));
        Obs.Counter.get c = tasks * per);
    (* serialization round trip: every line of a trace parses through
       Njson and re-emits byte for byte (canonical compact form) *)
    test "trace lines round-trip through Njson" ~count:10
      (arb ~print:print_shape (span_shape_gen 2))
      (fun shape ->
        with_temp_trace_file (fun file ->
            Obs.Trace.with_file file (fun () -> build_spans 0 shape);
            In_channel.with_open_text file In_channel.input_lines
            |> List.for_all (fun line ->
                   Njson.to_string ~indent:0 (Njson.of_string line) = line)));
    (* observer effect: compiling under an active trace sink yields the
       same compiled program as compiling with the null sink, and the
       trace it writes passes the validator *)
    test "tracing never changes the compiled circuit" ~count:2
      (circuit_arb ~n_qubits:3 ~max_length:8 ())
      (fun circuit ->
        with_temp_trace_file (fun file ->
            let options =
              { Compiler.Pipeline.default_options with nuop = fast_nuop }
            in
            let device = Device.sycamore_line 4 in
            let isa = Isa.Set.g2 in
            Decompose.Cache.clear ();
            let plain = Compiler.Pipeline.compile ~options ~device ~isa circuit in
            Decompose.Cache.clear ();
            let traced =
              Obs.Trace.with_file file (fun () ->
                  Compiler.Pipeline.compile ~options ~device ~isa circuit)
            in
            same_compiled plain traced
            &&
            match Obs.Trace.check_file file with Ok _ -> true | Error _ -> false));
  ]

(* ---------- service: the resident server against its laws ---------- *)

(* Submit a batch of raw request lines to a fresh server and return the
   sorted response multiset.  [drain] is the synchronization point: it
   returns only after every accepted job has replied. *)
let serve_batch ?exec ~workers lines =
  let t =
    Service.Server.create ?exec
      {
        Service.Server.default_config with
        Service.Server.workers;
        queue_depth = max 8 (List.length lines);
      }
  in
  let lock = Mutex.create () in
  let replies = ref [] in
  List.iter
    (fun line ->
      Service.Server.submit_line t
        ~reply:(fun r ->
          Mutex.lock lock;
          replies := r :: !replies;
          Mutex.unlock lock)
        line)
    lines;
  Service.Server.drain t;
  List.sort compare !replies

(* a small request mix: cheap ops plus real compiles over a bounded
   parameter space (so the shared cache covers repeats quickly) *)
let request_line_gen =
  let open Service in
  let compile_req =
    G.map2
      (fun (qubits, seed) id ->
        Njson.to_string ~indent:0
          (Njson.Obj
             [
               ("id", Njson.Int id);
               ("op", Njson.String "compile");
               ("app", Njson.String "qaoa");
               ("isa", Njson.String "G2");
               ("qubits", Njson.Int qubits);
               ("seed", Njson.Int seed);
             ]))
      (G.pair (G.int_range 3 4) (G.int_range 1 3))
      (G.int_range 0 1000)
  in
  let simple op =
    G.map
      (fun id ->
        Njson.to_string ~indent:0
          (Njson.Obj [ ("id", Njson.Int id); ("op", Njson.String op) ]))
      (G.int_range 0 1000)
  in
  ignore Protocol.schema;
  G.choose [ compile_req; simple "ping"; simple "devices"; compile_req ]

let print_lines lines = String.concat "\n" lines

let obj_line kvs = Njson.to_string ~indent:0 (Njson.Obj kvs)

let error_kind_of_reply reply =
  match Njson.of_string_result reply with
  | Ok j -> (
    match Njson.member "error" j with
    | Some e -> (
      match Njson.member "kind" e with Some (Njson.String k) -> Some k | _ -> None)
    | None -> None)
  | Error _ -> None

let ok_reply reply =
  match Njson.of_string_result reply with
  | Ok j -> Njson.member "ok" j = Some (Njson.Bool true)
  | Error _ -> false

let service_group =
  [
    (* the tentpole law: the response multiset is invariant under worker
       count — a 3-worker server answers byte for byte what the
       1-worker (sequential) server answers *)
    test "responses are byte-identical at pool sizes 1 and 3" ~count:4
      (arb ~print:print_lines (G.list_of ~len:(G.int_range 1 6) request_line_gen))
      (fun lines ->
        let sequential = serve_batch ~workers:1 lines in
        let concurrent = serve_batch ~workers:3 lines in
        List.equal String.equal sequential concurrent);
    (* backpressure: with the worker wedged and the queue full, every
       extra request is refused as [overloaded], synchronously, and
       every accepted one still completes after the wedge lifts —
       nothing is ever dropped *)
    test "queue overflow always answers overloaded, never drops" ~count:5
      (arb
         ~print:(fun (q, k) -> Printf.sprintf "queue=%d extras=%d" q k)
         (G.pair (G.int_range 1 4) (G.int_range 1 4)))
      (fun (q, k) ->
        let gate = Mutex.create () in
        let gate_cv = Condition.create () in
        let open_ = ref false in
        let started = Atomic.make 0 in
        let exec _req =
          Mutex.lock gate;
          Atomic.incr started;
          Condition.broadcast gate_cv;
          while not !open_ do
            Condition.wait gate_cv gate
          done;
          Mutex.unlock gate;
          Ok (Njson.Bool true)
        in
        let t =
          Service.Server.create ~exec
            {
              Service.Server.default_config with
              Service.Server.workers = 1;
              queue_depth = q;
            }
        in
        let lock = Mutex.create () in
        let replies = ref [] in
        let reply r =
          Mutex.lock lock;
          replies := r :: !replies;
          Mutex.unlock lock
        in
        let submit i = Service.Server.submit_line t ~reply (obj_line [ ("id", Njson.Int i); ("op", Njson.String "ping") ]) in
        submit 0;
        (* wait until the single worker holds request 0, so the queue
           really has q free slots — a blocking wait, because on a
           loaded single-core box the worker domain can take arbitrarily
           long to be scheduled *)
        Mutex.lock gate;
        while Atomic.get started = 0 do
          Condition.wait gate_cv gate
        done;
        Mutex.unlock gate;
        for i = 1 to q do
          submit i
        done;
        (* these k must bounce immediately: the reply arrives before
           submit_line returns *)
        let overloaded = ref 0 in
        for i = q + 1 to q + k do
          let before = List.length !replies in
          submit i;
          Mutex.lock lock;
          let now = !replies in
          Mutex.unlock lock;
          if
            List.length now = before + 1
            && error_kind_of_reply (List.hd now) = Some "overloaded"
          then incr overloaded
        done;
        Mutex.lock gate;
        open_ := true;
        Condition.broadcast gate_cv;
        Mutex.unlock gate;
        Service.Server.drain t;
        !overloaded = k
        && List.length !replies = 1 + q + k
        && List.length (List.filter ok_reply !replies) = 1 + q);
    (* deadlines: a request that expires in the queue answers [timeout]
       without executing, one that expires mid-execution answers
       [timeout] after it, and the worker slot survives both *)
    test "deadline exceeded yields timeout and the slot is reclaimed" ~count:3
      (arb ~print:(Printf.sprintf "deadline=%dms") (G.int_range 1 5))
      (fun dl_ms ->
        let gate = Mutex.create () in
        let gate_cv = Condition.create () in
        let open_ = ref false in
        let entered = ref false in
        let started = Atomic.make 0 in
        let exec req =
          Atomic.incr started;
          (match Njson.member "block" req.Service.Protocol.body with
          | Some (Njson.Bool true) ->
            Mutex.lock gate;
            entered := true;
            Condition.broadcast gate_cv;
            while not !open_ do
              Condition.wait gate_cv gate
            done;
            Mutex.unlock gate
          | _ -> ());
          Ok (Njson.Bool true)
        in
        let t =
          Service.Server.create ~exec
            {
              Service.Server.default_config with
              Service.Server.workers = 1;
              queue_depth = 8;
            }
        in
        let lock = Mutex.create () in
        let replies = Hashtbl.create 4 in
        let reply_for id r =
          Mutex.lock lock;
          Hashtbl.replace replies id r;
          Mutex.unlock lock
        in
        (* r0 wedges the worker; it carries no deadline, so it reaches
           the executor no matter how slowly the domain is scheduled *)
        Service.Server.submit_line t ~reply:(reply_for 0)
          (obj_line
             [
               ("id", Njson.Int 0);
               ("op", Njson.String "ping");
               ("block", Njson.Bool true);
             ]);
        Mutex.lock gate;
        while not !entered do
          Condition.wait gate_cv gate
        done;
        Mutex.unlock gate;
        (* r1 queues behind the wedge with a deadline we let expire
           before releasing the worker.  The probe is armed after
           submit_line returns, so on the shared monotonic clock the
           probe expiring implies r1's own deadline has expired *)
        Service.Server.submit_line t ~reply:(reply_for 1)
          (obj_line
             [
               ("id", Njson.Int 1);
               ("op", Njson.String "ping");
               ("deadline_ms", Njson.Float (float_of_int dl_ms));
             ]);
        let probe = Service.Deadline.after ~ms:(float_of_int dl_ms) in
        while not (Service.Deadline.expired probe) do
          Unix.sleepf 0.001
        done;
        (* r2: no deadline -> proves the worker slot was reclaimed *)
        Service.Server.submit_line t ~reply:(reply_for 2)
          (obj_line [ ("id", Njson.Int 2); ("op", Njson.String "ping") ]);
        Mutex.lock gate;
        open_ := true;
        Condition.broadcast gate_cv;
        Mutex.unlock gate;
        Service.Server.drain t;
        let kind id = Option.bind (Hashtbl.find_opt replies id) error_kind_of_reply in
        let ok id =
          match Hashtbl.find_opt replies id with
          | Some r -> ok_reply r
          | None -> false
        in
        ok 0
        && kind 1 = Some "timeout"
        && ok 2
        && Atomic.get started = 2 (* r1 never reached the executor *));
  ]

let all =
  [
    ("mat", mat);
    ("weyl", weyl);
    ("optimize", optimize);
    ("decompose", decompose);
    ("sim", sim);
    ("roundtrip", roundtrip);
    ("compiler", compiler);
    ("schedule", schedule_group);
    ("isa", isa);
    ("device", device);
    ("persist", persist);
    ("obs", obs_group);
    ("service", service_group);
  ]
