(* Bechamel microbenchmarks of the hot kernels, then the optimizer
   ablation (BFGS vs Nelder-Mead on one NuOp template).  Takes no
   arguments:

     dune exec bench/main.exe

   The paper's tables and figures run through `nuop experiment` (see
   EXPERIMENTS.md). *)

(* ---------- Bechamel microbenchmarks ---------- *)

let micro_tests () =
  let open Bechamel in
  let rng = Linalg.Rng.create 3 in
  let a = Linalg.Qr.haar_unitary rng 4 and b = Linalg.Qr.haar_unitary rng 4 in
  let dst = Linalg.Mat.create 4 4 in
  (* boxed reference matmul for the unboxed-storage ablation *)
  let boxed_mul x y =
    Linalg.Mat.init 4 4 (fun i j ->
        let acc = ref Complex.zero in
        for k = 0 to 3 do
          acc := Complex.add !acc (Complex.mul (Linalg.Mat.get x i k) (Linalg.Mat.get y k j))
        done;
        !acc)
  in
  let target = Linalg.Qr.haar_special_unitary rng 4 in
  let template = Decompose.Template.create Gates.Gate_type.s3 ~layers:3 in
  let params =
    Array.init (Decompose.Template.param_count template) (fun _ ->
        Linalg.Rng.uniform rng (-.Float.pi) Float.pi)
  in
  let grad = Array.make (Array.length params) 0.0 in
  let state16 = Sim.State.create 16 in
  let syc = Gates.Twoq.syc in
  let qv_target = Linalg.Qr.haar_special_unitary rng 4 in
  let nuop_opts = { Decompose.Nuop.default_options with starts = 1 } in
  (* long 1Q runs broken by entanglers — the shape the peephole sees
     after NuOp lowering *)
  let peephole_circuit =
    let c = ref (Qcir.Circuit.empty 4) in
    for k = 0 to 63 do
      let q = k mod 4 in
      if k mod 7 = 6 then c := Qcir.Circuit.add_gate !c Gates.Gate.cz [| q; (q + 1) mod 4 |]
      else
        c :=
          Qcir.Circuit.add_gate !c
            (Gates.Gate.u3
               (Linalg.Rng.uniform rng 0.0 Float.pi)
               (Linalg.Rng.uniform rng 0.0 Float.pi)
               (Linalg.Rng.uniform rng 0.0 Float.pi))
            [| q |]
    done;
    !c
  in
  let peephole_errors = Array.make (Qcir.Circuit.length peephole_circuit) 0.0 in
  (* one 2Q gate followed by its depolarizing channel and amplitude and
     phase damping on both acting qubits, run on a fresh 6-qubit density
     operator *)
  let noisy_model =
    {
      Sim.Noisy.ideal with
      twoq_error = (fun _ _ -> 0.01);
      t1 = (fun _ -> 20e-6);
      t2 = (fun _ -> 15e-6);
      duration_2q = 30e-9;
    }
  in
  let noisy_gate = Qcir.Circuit.add_gate (Qcir.Circuit.empty 6) Gates.Gate.cz [| 2; 4 |] in
  [
    Test.make ~name:"mat4.mul (unboxed)" (Staged.stage (fun () -> Linalg.Mat.mul_into ~dst a b));
    Test.make ~name:"mat4.mul (boxed ref)" (Staged.stage (fun () -> ignore (boxed_mul a b)));
    Test.make ~name:"template.eval 3 layers"
      (Staged.stage (fun () -> ignore (Decompose.Template.fidelity template params ~target)));
    Test.make ~name:"template.gradient 3 layers"
      (Staged.stage (fun () ->
           ignore (Decompose.Template.infidelity_gradient template params ~target ~grad)));
    Test.make ~name:"statevector 2q gate @16q"
      (Staged.stage (fun () -> Sim.State.apply_matrix state16 syc [| 3; 9 |]));
    Test.make ~name:"density 2q gate+noise @6q"
      (Staged.stage (fun () -> ignore (Sim.Noisy.run noisy_model noisy_gate)));
    Test.make ~name:"nuop exact SU4->CZ (1 start)"
      (Staged.stage (fun () ->
           ignore
             (Decompose.Nuop.decompose_exact ~options:nuop_opts Gates.Gate_type.s3
                ~target:qv_target)));
    Test.make ~name:"weyl.cnot_count"
      (Staged.stage (fun () -> ignore (Decompose.Weyl.cnot_count qv_target)));
    Test.make ~name:"pass.merge_oneq 64 instrs"
      (Staged.stage (fun () ->
           ignore (Compiler.Pass.merge_oneq_rewrite peephole_circuit peephole_errors)));
  ]

let run_micro () =
  let open Bechamel in
  print_endline "Microbenchmarks (ns/run via OLS):";
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.6) ~kde:(Some 500) () in
  let tests = micro_tests () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let stats = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-36s %14.1f ns\n%!" name est
          | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
        stats)
    tests

(* ---------- optimizer ablation (BFGS vs Nelder-Mead) ---------- *)

let run_ablation () =
  print_endline "\nAblation: BFGS vs Nelder-Mead on one SU(4)->CZ template (3 layers):";
  let rng = Linalg.Rng.create 9 in
  let target = Linalg.Qr.haar_special_unitary rng 4 in
  let template = Decompose.Template.create Gates.Gate_type.s3 ~layers:3 in
  let dim = Decompose.Template.param_count template in
  let objective p = Decompose.Template.infidelity template p ~target in
  let x0 = Array.init dim (fun _ -> Linalg.Rng.uniform rng (-.Float.pi) Float.pi) in
  let b, bfgs_s =
    Obs.Span.timed "bench.ablation.bfgs" (fun () -> Optimize.Bfgs.minimize objective x0)
  in
  let nm, nm_s =
    Obs.Span.timed "bench.ablation.nelder_mead" (fun () ->
        Optimize.Nelder_mead.minimize
          ~options:{ Optimize.Nelder_mead.default_options with max_iter = 20000 }
          objective x0)
  in
  Printf.printf "  BFGS:        infidelity %.2e in %d iters, %d evals, %.0f ms\n"
    b.Optimize.Bfgs.f b.iterations b.evaluations (1000.0 *. bfgs_s);
  Printf.printf "  Nelder-Mead: infidelity %.2e in %d iters, %d evals, %.0f ms\n"
    nm.Optimize.Nelder_mead.f nm.iterations nm.evaluations (1000.0 *. nm_s)

let () =
  run_micro ();
  run_ablation ()
