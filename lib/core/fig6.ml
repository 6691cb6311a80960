(* Fig 6: NuOp vs the Cirq-equivalent baseline — hardware gate counts and
   decomposition errors for random QV/QAOA/QFT unitaries across target
   gate types, at hardware-fidelity targets 100 / 99.9 / 99 / 95 %. *)

open Linalg

type mode = Cirq | Nuop_hw of float

let mode_name = function
  | Cirq -> "Cirq"
  | Nuop_hw f ->
    if f >= 1.0 then "NuOp-100%" else Printf.sprintf "NuOp-%g%%" (100.0 *. f)

let modes = [ Cirq; Nuop_hw 1.0; Nuop_hw 0.999; Nuop_hw 0.99; Nuop_hw 0.95 ]

let targets = Gates.Gate_type.[ s3; s1; s4; s2 ] (* CZ, SYC, iSWAP, sqrt(iSWAP) *)

let unitary_sets cfg rng =
  let n = cfg.Config.fig6_unitaries in
  [
    ("QV", Apps.Su4_unitaries.qv_set rng ~count:n);
    ("QAOA", Apps.Su4_unitaries.qaoa_set rng ~count:n);
    ("QFT", Apps.Su4_unitaries.qft_set ~count:(min n 10) ());
  ]

(* (mean gate count, mean decomposition error) or None if unsupported. *)
let evaluate cfg mode gate_type unitaries =
  match mode with
  | Nuop_hw f ->
    (* NuOp modes go through the shared scorer: perfect hardware is the
       classic exact decomposition, otherwise the hardware-aware mode *)
    let m = if f >= 1.0 then `Exact Isa.Score.default_threshold else `Approx f in
    let s =
      Isa.Score.stats_for_type ~options:cfg.Config.nuop ~mode:m gate_type unitaries
    in
    Some (s.Isa.Score.layers, s.Isa.Score.error)
  | Cirq -> (
    let results =
      List.filter_map
        (fun u ->
          Option.map
            (fun r ->
              ( float_of_int r.Decompose.Cirq_like.gate_count,
                r.Decompose.Cirq_like.decomposition_error ))
            (Decompose.Cirq_like.decompose ~target_gate:gate_type u))
        unitaries
    in
    match results with
    | [] -> None
    | _ ->
      let n = float_of_int (List.length results) in
      let sum_c = List.fold_left (fun acc (c, _) -> acc +. c) 0.0 results in
      let sum_e = List.fold_left (fun acc (_, e) -> acc +. e) 0.0 results in
      Some (sum_c /. n, sum_e /. n))

let doc ?(cfg = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b
    "Fig 6: NuOp vs Cirq — hardware gate counts per application unitary";
  let rng = Rng.create (cfg.Config.seed + 6) in
  let sets = unitary_sets cfg rng in
  List.iter
    (fun (app, unitaries) ->
      Report.Builder.subheading b
        (Printf.sprintf "%s (%d unitaries)" app (List.length unitaries));
      let rows =
        List.map
          (fun mode ->
            mode_name mode
            :: List.concat_map
                 (fun ty ->
                   match evaluate cfg mode ty unitaries with
                   | None -> [ "n/s"; "-" ]
                   | Some (c, e) -> [ Report.f2 c; Printf.sprintf "%.1e" e ])
                 targets)
          modes
      in
      let header =
        "mode"
        :: List.concat_map
             (fun ty ->
               let n = Gates.Gate_type.name ty in
               [ n ^ " #g"; n ^ " err" ])
             targets
      in
      Report.Builder.table b ~header rows;
      (* headline: mean exact-NuOp CZ count for this application set *)
      match evaluate cfg (Nuop_hw 1.0) Gates.Gate_type.s3 unitaries with
      | Some (c, _) ->
        Report.Builder.metric b
          (Printf.sprintf "%s_nuop100_cz_gates" (String.lowercase_ascii app))
          c
      | None -> ())
    sets;
  Report.Builder.textf b
    "\nPaper shape check: NuOp-100%% matches or beats Cirq everywhere (e.g. 3 vs 6\n\
     SYC per QV unitary); approximation (95-99%%) trims a further ~1.05-1.33x;\n\
     Cirq has no generic sqrt(iSWAP) route (n/s).\n";
  Report.Builder.doc b
