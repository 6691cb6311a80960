(* Fig 1: the simulation framework (a block diagram in the paper).
   Rendered as a textual map from each block to the module implementing
   it, so the harness covers every figure. *)

let doc ?cfg:(_ = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b "Fig 1: simulation framework (block -> module map)";
  Report.Builder.table b
    ~header:[ "framework block"; "implementation" ]
    [
      [ "QC applications (QV/QAOA/FH/QFT)"; "apps.Qv / Qaoa / Fermi_hubbard / Qft" ];
      [ "candidate instruction sets (Table II)"; "compiler.Isa" ];
      [ "NuOp compilation pass"; "decompose.Nuop (+ Cache, Template)" ];
      [ "device models + calibration data"; "device.Aspen8 / Sycamore / Calibration" ];
      [ "realistic noise simulation"; "sim.Noisy / Density / Trajectory" ];
      [ "calibration model (Sec IX)"; "calibration.Model / Sweep / Drift" ];
      [ "metrics (HOP / XED / XEB / success)"; "metrics.*" ];
      [ "design guidance output"; "core.Fig9 / Fig10 / Fig11" ];
    ];
  Report.Builder.doc b
