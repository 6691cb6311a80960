(* The `drift` experiment: one workload, one device, several calibration
   snapshots.  Calibration.Drift.perturb turns a fresh Device.t into aged
   snapshots (every stored two-qubit error and the continuous-family
   scale inflate by Brownian multipliers >= 1); recalibration is just
   another registry build under a bumped seed.  The whole toolflow —
   placement, routing, noise-adaptive lowering, the noise model, analytic
   ESP — follows whichever snapshot it is handed, so the rows below need
   no special cases. *)

open Linalg

let isa = Isa.Set.r5

let mean_stored_twoq_error device =
  let entries =
    Device.Calibration.twoq_error_entries (Device.calibration device)
  in
  List.fold_left (fun acc (_, _, e) -> acc +. e) 0.0 entries
  /. float_of_int (List.length entries)

(* small fixed sample set: the four snapshots must be scored on identical
   unitaries for the expressivity column to be comparable *)
let score_counts = Apps.Su4_unitaries.[ (Qv, 3); (Qaoa, 3); (Swap, 1) ]

let doc ?(cfg = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b "Drift: compiling against aged calibration snapshots";
  let rng = Rng.create (cfg.Config.seed + 13) in
  let drift_rng = Rng.create (cfg.Config.seed + 14) in
  let fresh = Device.aspen8 () in
  let snapshots =
    [
      ("fresh", fresh);
      ( "drifted-12h",
        Calibration.Drift.perturb drift_rng Calibration.Drift.default
          ~hours:12.0 fresh );
      ( "drifted-48h",
        Calibration.Drift.perturb drift_rng Calibration.Drift.default
          ~hours:48.0 fresh );
      (* recalibration draws a new fidelity table — a fresh registry-style
         build under a bumped seed, not a rescue of the drifted numbers *)
      ("recalibrated", Device.aspen8 ~seed:12 ());
    ]
  in
  let circuits = Apps.Qaoa.circuits rng ~count:cfg.Config.qaoa_count 4 in
  let samples =
    Isa.Score.samples ~counts:score_counts (Rng.create (cfg.Config.seed + 15))
  in
  let options = { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop } in
  Report.Builder.textf b
    "device: %s; workload: %d 4-qubit QAOA circuits; set: %s\n"
    (Device.name fresh) (List.length circuits) (Isa.Set.name isa);
  let rows =
    List.map
      (fun (label, device) ->
        let mean_err = mean_stored_twoq_error device in
        let r = Study.evaluate_suite ~options ~device ~isa ~metric:Study.Xed circuits in
        let score =
          Isa.Score.score ~options:cfg.Config.nuop ~error_rate:mean_err ~samples isa
        in
        (label, device, mean_err, r, score))
      snapshots
  in
  Report.Builder.table b
    ~header:
      [ "snapshot"; "age (h)"; "mean 2Q err"; "XED"; "2Q gates"; "ESP";
        "expressivity (Eq 2)" ]
    (List.map
       (fun (label, device, mean_err, r, score) ->
         [
           label;
           Printf.sprintf "%.0f"
             (Device.provenance device).Device.Provenance.drifted_hours;
           Printf.sprintf "%.2e" mean_err;
           Report.f4 r.Study.mean_metric;
           Report.f2 r.Study.mean_twoq;
           Report.f4 r.Study.mean_esp;
           Report.f4 score.Isa.Score.mean_fidelity;
         ])
       rows);
  let esp_of label =
    match List.find_opt (fun (l, _, _, _, _) -> String.equal l label) rows with
    | Some (_, _, _, r, _) -> r.Study.mean_esp
    | None -> nan
  in
  Report.Builder.metric b "esp_fresh" (esp_of "fresh");
  Report.Builder.metric b "esp_drifted_48h" (esp_of "drifted-48h");
  Report.Builder.metric b "esp_recalibrated" (esp_of "recalibrated");
  Report.Builder.textf b
    "\nShape check: drift only inflates stored errors, so XED and ESP degrade\n\
     monotonically with age while recalibration restores fresh-grade scores.\n";
  Report.Builder.doc b
