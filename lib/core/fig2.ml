(* Fig 2: example decompositions of a QV (SU(4)) unitary and a QAOA ZZ
   interaction into CZ and sqrt(iSWAP) hardware gates, exactly
   (decomposition error ~1e-8). *)

open Linalg

let show b ~label ~target gate_type cfg =
  let d =
    Decompose.Cache.decompose_exact ~options:cfg.Config.nuop
      ~threshold:(1.0 -. 1e-7) gate_type ~target
  in
  Report.Builder.textf b "\n(%s) -> %s: %d gate applications, decomposition error %.2e\n"
    label
    (Gates.Gate_type.name gate_type)
    d.Decompose.Nuop.layers
    (1.0 -. d.Decompose.Nuop.fd);
  let circuit = Decompose.Nuop.to_circuit d ~n_qubits:2 ~qubits:(0, 1) in
  Report.Builder.text b (Qcir.Printer.render circuit)

let doc ?(cfg = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b "Fig 2: decomposition examples with NuOp";
  let rng = Rng.create cfg.Config.seed in
  let qv_unitary = Apps.Qv.random_unitary rng in
  let zz_unitary = Gates.Twoq.zz 0.77 in
  Report.Builder.textf b
    "\n(a) random SU(4) unitary (QV gate), (b) e^{-i 0.77 Z(x)Z} (QAOA gate)\n";
  show b ~label:"a: QV unitary" ~target:qv_unitary Gates.Gate_type.s3 cfg;
  show b ~label:"a: QV unitary" ~target:qv_unitary Gates.Gate_type.s2 cfg;
  show b ~label:"b: QAOA ZZ" ~target:zz_unitary Gates.Gate_type.s3 cfg;
  show b ~label:"b: QAOA ZZ" ~target:zz_unitary Gates.Gate_type.s2 cfg;
  Report.Builder.textf b
    "\nPaper shape check: QV needs 3 gates with either type; ZZ needs 2 —\n\
     the CZ gate is more expressive for QAOA, sqrt(iSWAP) for QV.\n";
  Report.Builder.doc b
