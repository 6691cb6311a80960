(* The single list of paper experiments, plus the nuop-bench/1 artifact
   that records a run of them. `nuop experiment` is the one front end:
   an experiment added here shows up in `nuop experiment all`, its
   `--json` artifact and the artifact check without further wiring. *)

type entry = {
  name : string;
  description : string;
  run : Config.t -> Report.doc;
}

let all =
  [
    {
      name = "table1";
      description = "gate families and fidelity models";
      run = Table1.doc;
    };
    {
      name = "table2";
      description = "instruction sets studied";
      run = Table2.doc;
    };
    {
      name = "fig1";
      description = "framework block -> module map";
      run = Fig1.doc;
    };
    {
      name = "fig2";
      description = "example NuOp decompositions";
      run = Fig2.doc;
    };
    {
      name = "fig3";
      description = "Aspen-8 calibration table";
      run = Fig3.doc;
    };
    {
      name = "fig4";
      description = "the NuOp template circuit";
      run = Fig4.doc;
    };
    {
      name = "fig5";
      description = "noise-adaptive decomposition walkthrough";
      run = Fig5.doc;
    };
    {
      name = "fig6";
      description = "NuOp vs Cirq gate counts";
      run = Fig6.doc;
    };
    {
      name = "fig7";
      description = "exact vs approximate decomposition";
      run = Fig7.doc;
    };
    {
      name = "fig8";
      description = "fSim expressivity heatmaps";
      run = Fig8.doc;
    };
    {
      name = "fig9";
      description = "Aspen-8 instruction-set study";
      run = Fig9.doc;
    };
    {
      name = "fig10";
      description = "Sycamore instruction-set study";
      run = Fig10.doc;
    };
    {
      name = "fig11";
      description = "calibration overhead model";
      run = Fig11.doc;
    };
    {
      name = "ablations";
      description = "design-decision & extension ablations";
      run = Ablations.doc;
    };
    {
      name = "design";
      description = "searched instruction sets (Pareto frontier)";
      run = Design.doc;
    };
    {
      name = "drift";
      description = "fresh vs drifted vs recalibrated snapshots";
      run = Drift_study.doc;
    };
  ]

(* Case-insensitive, matching the ISA/Device registry conventions:
   `nuop experiment FIG9` and `nuop experiment Fig9` find fig9. *)
let find name =
  let lower = String.lowercase_ascii name in
  List.find_opt (fun e -> String.lowercase_ascii e.name = lower) all

let names = List.map (fun e -> e.name) all

let find_exn name =
  match find name with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "Core.Registry: unknown experiment %S (known: %s)" name
         (String.concat ", " names))

(* Wall time is measured around the document build (all the numeric work
   happens there; rendering is negligible) by the experiment's span — the
   same number lands in the artifact's "seconds" field and, under
   --trace / NUOP_TRACE, in the trace. *)
let run ?(attrs = []) cfg e =
  Obs.Span.timed ~attrs:(("experiment", e.name) :: attrs) "experiment" (fun () -> e.run cfg)

let artifact ~date ~scale runs =
  Njson.Obj
    [
      ("schema", Njson.String "nuop-bench/1");
      ("date", Njson.String date);
      ("scale", Njson.String scale);
      ( "experiments",
        Njson.List
          (List.map
             (fun (e, doc, seconds) ->
               Report.to_json ~name:e.name ~description:e.description ~seconds doc)
             runs) );
    ]

let check_artifact ~names text =
  match Njson.of_string_result text with
  | Error msg -> Error ("not JSON: " ^ msg)
  | Ok json ->
    let found =
      Option.bind (Njson.member "experiments" json) Njson.to_list
      |> Option.value ~default:[]
      |> List.filter_map (fun e -> Option.bind (Njson.member "name" e) Njson.to_string_value)
    in
    (match List.filter (fun n -> not (List.mem n found)) names with
    | [] -> Ok (List.length found)
    | missing -> Error ("missing experiments: " ^ String.concat ", " missing))
