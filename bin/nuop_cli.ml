(* nuop — command-line interface to the reproduction library.

   Subcommands:
     decompose    decompose a two-qubit unitary into a hardware gate type
     devices      print the modelled devices and their calibration data
     study        run a benchmark suite against an instruction set
     compile      compile one benchmark through the pass manager (--trace-passes)
     cache        warm, inspect and compact persistent curve snapshots
     calibration  print the Sec IX calibration cost model
     experiment   run the paper's table/figure reproductions (text, JSON artifact,
                  or cold-vs-warm cache table)
     design       search gate-type pools for Pareto-optimal instruction sets
     trace        validate JSONL telemetry traces (nuop-trace/1)
     serve        resident compilation server (NDJSON over stdio or a Unix socket)
     request      one-shot client for a running `nuop serve --socket`

   compile/study/devices output is rendered by Service.Ops — the same
   functions the resident server embeds in its responses — so serving is
   byte-identical to the one-shot CLI by construction.  The compile,
   study and `cache warm` flags are derived from the Service.Ops
   parameter tables, so both front ends accept the same values.

   The global `--trace FILE` flag (any subcommand, also NUOP_TRACE=FILE)
   streams the run's telemetry — hierarchical spans, final counter
   totals, warnings — as JSONL through Obs; `nuop trace check FILE`
   validates such a file.  Every subcommand warms Decompose.Cache from
   NUOP_CACHE_FILE (if set) before running, so repeated invocations
   share their fidelity curves. *)

open Cmdliner

(* An angle inside a --target/--gate spec; anything but a finite number
   is a CLI error naming the spec. *)
let angle spec s =
  match float_of_string_opt s with
  | Some a when Float.is_finite a -> a
  | _ -> invalid_arg (Printf.sprintf "%s: angle %S is not a finite number" spec s)

let known_targets rng = function
  | "su4" -> Apps.Qv.random_unitary rng
  | "swap" -> Gates.Twoq.swap
  | "cz" -> Gates.Twoq.cz
  | "iswap" -> Gates.Twoq.iswap
  | s when String.length s > 3 && String.sub s 0 3 = "zz:" ->
    Gates.Twoq.zz (angle s (String.sub s 3 (String.length s - 3)))
  | s when String.length s > 7 && String.sub s 0 7 = "cphase:" ->
    Gates.Twoq.cphase (angle s (String.sub s 7 (String.length s - 7)))
  | s -> invalid_arg (Printf.sprintf "unknown target %s" s)

let known_gate_types = function
  | "cz" -> Gates.Gate_type.s3
  | "syc" -> Gates.Gate_type.s1
  | "iswap" -> Gates.Gate_type.s4
  | "sqrt_iswap" -> Gates.Gate_type.s2
  | "swap" -> Gates.Gate_type.swap_type
  | "xy_pi" -> Gates.Gate_type.xy_pi
  | "full_fsim" -> Gates.Gate_type.Fsim_family
  | "full_xy" -> Gates.Gate_type.Xy_family
  | s when String.length s > 5 && String.sub s 0 5 = "fsim:" -> begin
    match String.split_on_char ',' (String.sub s 5 (String.length s - 5)) with
    | [ theta; phi ] ->
      let theta = angle s theta in
      Gates.Gate_type.fsim_type theta (angle s phi)
    | _ -> invalid_arg "expected fsim:<theta>,<phi>"
  end
  | s -> invalid_arg (Printf.sprintf "unknown gate type %s" s)

(* The named unitary decompose, qasm and weyl act on (su4 draws from
   --seed), and the hardware gate type they target. *)
let target_term =
  let target =
    Arg.(
      value & opt string "su4"
      & info [ "target"; "t" ] ~docv:"UNITARY"
          ~doc:"Unitary: su4 (random), swap, cz, iswap, zz:<angle>, cphase:<angle>.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let resolve t seed = (t, known_targets (Linalg.Rng.create seed) t) in
  Term.(const resolve $ target $ seed)

let gate_arg =
  Arg.(
    value & opt string "cz"
    & info [ "gate"; "g" ] ~docv:"GATE"
        ~doc:
          "Hardware gate type: cz, syc, iswap, sqrt_iswap, swap, xy_pi, \
           fsim:<theta>,<phi>, full_fsim, full_xy.")

let output_arg doc =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

(* ---------- decompose ---------- *)

let decompose_cmd =
  let error_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "error" ] ~docv:"RATE"
          ~doc:
            "Hardware error rate per gate; switches to approximate (Eq 2) \
             decomposition.")
  in
  let run (target, u) gate error_rate =
    let ty = known_gate_types gate in
    let d =
      match error_rate with
      | None -> Decompose.Nuop.decompose_exact ty ~target:u
      | Some e ->
        let fh layers = (1.0 -. e) ** float_of_int layers in
        Decompose.Nuop.decompose_approx ~fh ty ~target:u
    in
    Printf.printf "%s -> %s: %d gate applications\n" target gate d.Decompose.Nuop.layers;
    Printf.printf "decomposition fidelity F_d = %.8f" d.Decompose.Nuop.fd;
    if Option.is_some error_rate then
      Printf.printf ", overall F_u = %.6f" (Decompose.Nuop.overall_fidelity d);
    print_newline ();
    Printf.printf "minimal CZ-count lower bound (Weyl): %d\n\n" (Decompose.Weyl.cnot_count u);
    Qcir.Printer.print (Decompose.Nuop.to_circuit d ~n_qubits:2 ~qubits:(0, 1))
  in
  Cmd.v
    (Cmd.info "decompose" ~doc:"Decompose a two-qubit unitary with NuOp")
    Term.(const run $ target_term $ gate_arg $ error_rate)

(* ---------- devices ---------- *)

let qubits_opt_arg =
  Arg.(
    value & opt (some int) None
    & info [ "qubits"; "n" ] ~docv:"N"
        ~doc:"Qubit count for sized devices (registry default otherwise).")

let device_pos default =
  Arg.(
    value & pos 0 string default
    & info [] ~docv:"DEVICE" ~doc:"Registry name or snapshot file.")

let devices_list () = print_string (Service.Ops.devices_list_text ())

let devices_list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List the registered device models")
    Term.(const devices_list $ const ())

let devices_show_cmd =
  let run spec qubits =
    let d = Service.Ops.resolve_device ?qubits spec in
    let topo = Device.topology d in
    Printf.printf "%s: %s\n" (Device.name d) (Device.description d);
    Printf.printf "  %d qubits, %d couplers\n" (Device.Topology.n_qubits topo)
      (Device.Topology.edge_count topo);
    let prov = Device.provenance d in
    (match prov.Device.Provenance.seed with
    | Some s -> Printf.printf "  builder seed %d\n" s
    | None -> ());
    (match prov.Device.Provenance.calibrated_at with
    | Some t -> Printf.printf "  calibrated at %s\n" t
    | None -> ());
    if prov.Device.Provenance.drifted_hours > 0.0 then
      Printf.printf "  drifted %.1f h since calibration\n"
        prov.Device.Provenance.drifted_hours;
    let isa = Device.native_isa d in
    Printf.printf "  native set %s: %s\n" (Isa.Set.name isa)
      (String.concat ", " (List.map Gates.Gate_type.name (Isa.Set.gate_types isa)));
    let cal = Device.calibration d in
    List.iter
      (fun ty ->
        match Gates.Gate_type.param_count ty with
        | 0 ->
          Printf.printf "    %-12s mean error %.4f%%  mean duration %.1f ns\n"
            (Gates.Gate_type.name ty)
            (100.0 *. Device.Calibration.mean_twoq_error cal ty)
            (1e9 *. Device.Calibration.mean_twoq_duration cal ty)
        | _ -> ())
      (Isa.Set.gate_types isa)
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print one device's calibration summary")
    Term.(const run $ device_pos "sycamore54" $ qubits_opt_arg)

let devices_dump_cmd =
  let run spec qubits output =
    let d = Service.Ops.resolve_device ?qubits spec in
    match output with
    | Some path ->
      Device.to_file path d;
      Printf.printf "wrote %s (%d qubits)\n" path (Device.n_qubits d)
    | None -> print_endline (Device.to_string d)
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Serialize a device to a JSON snapshot (re-loadable via --device FILE)")
    Term.(
      const run $ device_pos "aspen8" $ qubits_opt_arg
      $ output_arg "Write the snapshot to $(docv).")

let devices_cmd =
  Cmd.group
    ~default:Term.(const devices_list $ const ())
    (Cmd.info "devices" ~doc:"List, inspect and snapshot the modelled devices")
    [ devices_list_cmd; devices_show_cmd; devices_dump_cmd ]

(* ---------- study / compile ---------- *)

(* One Cmdliner argument per entry of an op's parameter table (entries
   without flags are RPC-only), collected into the JSON body a
   nuop-rpc/1 request would carry — the op then validates it exactly as
   the server does. *)
let body_term table =
  let arg (type a) (p : a Service.Ops.param) =
    let info = Arg.info p.flags ~docv:(String.uppercase_ascii p.key) ~doc:p.doc in
    let field to_json a = Term.app (Term.const to_json) (Arg.value (a info)) in
    match p.kind with
    | Str d -> field (fun s -> Njson.String s) (Arg.opt Arg.string d)
    | Int { default; _ } -> field (fun i -> Njson.Int i) (Arg.opt Arg.int default)
    | Flag -> field (fun b -> Njson.Bool b) Arg.flag
    | Text ->
      field
        (Option.fold ~none:Njson.Null ~some:(fun s -> Njson.String s))
        (Arg.opt (Arg.some Arg.string) None)
  in
  List.fold_right
    (fun (Service.Ops.P p) rest ->
      if p.flags = [] then rest
      else Term.(const (fun v kvs -> (p.key, v) :: kvs) $ arg p $ rest))
    table (Term.const [])
  |> Term.app (Term.const (fun kvs -> Njson.Obj kvs))

let ok_or_fail = function Ok v -> v | Error e -> invalid_arg e.Service.Protocol.message

let study_cmd =
  let run body =
    let text, _, _ = ok_or_fail (Service.Ops.score body) in
    print_string text
  in
  Cmd.v
    (Cmd.info "study" ~doc:"Compile and simulate a benchmark against an instruction set")
    Term.(const run $ body_term Service.Ops.score_params)

let compile_cmd =
  let run body =
    let _, text, _ = ok_or_fail (Service.Ops.compile body) in
    print_string text
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a benchmark circuit through the pass manager")
    Term.(const run $ body_term Service.Ops.compile_params)

(* ---------- cache ---------- *)

(* Persistent decomposition-cache tooling.  The file format is the
   Decompose.Persist curve snapshot (schema nuop-curves/2); every load
   below is corruption-tolerant — a bad file reports its reason and
   counts as empty, it never aborts the command with a backtrace. *)

let cache_file_pos =
  Arg.(
    value & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:"Curve-snapshot file; defaults to $(b,NUOP_CACHE_FILE) when unset.")

(* FILE, else the file NUOP_CACHE_FILE names *)
let cache_file file =
  let env = Decompose.Cache.env_var in
  match (file, Sys.getenv_opt env) with
  | Some f, _ -> Ok f
  | None, Some v ->
    Result.map_error
      (Printf.sprintf "invalid %s=%S (%s)" env v)
      (Decompose.Cache.validate_env_file v)
  | None, None -> Error (Printf.sprintf "no cache file: pass FILE or set %s" env)

let required_cache_file file =
  match cache_file file with Ok f -> f | Error msg -> invalid_arg msg

let cache_stats_cmd =
  let run file =
    (match Result.to_option (cache_file file) with
    | Some f -> begin
      match Decompose.Persist.load f with
      | Ok entries ->
        let points =
          List.fold_left (fun acc (_, c) -> acc + Array.length c) 0 entries
        in
        let bytes =
          try
            let ic = open_in_bin f in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> in_channel_length ic)
          with Sys_error _ -> 0
        in
        Printf.printf "%s: schema %s, %d curves, %d curve points, %d bytes\n" f
          Decompose.Persist.schema (List.length entries) points bytes
      | Error reason -> Printf.printf "%s: unusable (%s) — counts as empty\n" f reason
    end
    | None -> print_endline "no cache file (pass FILE or set NUOP_CACHE_FILE)");
    let hits, misses = Decompose.Cache.stats () in
    Printf.printf
      "in-memory: %d entries (%d warm), capacity %d, %d hits (%d warm) / %d misses\n"
      (Decompose.Cache.size ())
      (Decompose.Cache.warm_count ())
      (Decompose.Cache.capacity ())
      hits
      (Decompose.Cache.warm_hits ())
      misses
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Summarize a curve snapshot and the in-memory cache")
    Term.(const run $ cache_file_pos)

let cache_warm_cmd =
  let output = output_arg "Snapshot file to write (default: $(b,NUOP_CACHE_FILE))." in
  let run body output =
    let file = required_cache_file output in
    (* merge any existing snapshot first: disk entries never clobber the
       in-memory table, so re-warming an existing file only grows it *)
    let loaded =
      if Sys.file_exists file then Decompose.Cache.load_from_file file else 0
    in
    let label, _, _ = ok_or_fail (Service.Ops.compile body) in
    let saved = Decompose.Cache.save_to_file file in
    Printf.printf "%s: %d curves (%d loaded, %d computed by %s)\n" file saved loaded
      (saved - loaded) label
  in
  Cmd.v
    (Cmd.info "warm"
       ~doc:
         "Compile a benchmark to populate the curve cache and save the snapshot \
          (merging with the file's previous contents)")
    Term.(const run $ body_term Service.Ops.warm_params $ output)

let cache_dump_cmd =
  let run file =
    let file = required_cache_file file in
    match Decompose.Persist.load file with
    | Error reason -> Printf.printf "%s: unusable (%s) — counts as empty\n" file reason
    | Ok entries ->
      Printf.printf "%s: %d curves\n" file (List.length entries);
      List.iter
        (fun (key, curve) ->
          let layers, _, fd =
            if Array.length curve = 0 then (0, [||], Float.nan)
            else curve.(Array.length curve - 1)
          in
          Printf.printf "  %-72s %d points, max %d layers, best F_d %.8f\n" key
            (Array.length curve) layers fd)
        entries
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"List every curve in a snapshot file")
    Term.(const run $ cache_file_pos)

let cache_gc_cmd =
  let max_entries =
    Arg.(
      value & opt (some int) None
      & info [ "max" ] ~docv:"N" ~doc:"Keep at most $(docv) curves (first wins).")
  in
  let run file max_entries =
    let file = required_cache_file file in
    let entries =
      match Decompose.Persist.load file with
      | Ok entries -> entries
      | Error reason ->
        Obs.Log.warn "nuop: %s is unusable (%s); rewriting it empty" file reason;
        []
    in
    let seen = Hashtbl.create 64 in
    let deduped =
      List.filter
        (fun (key, _) ->
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        entries
    in
    let kept =
      match max_entries with
      | Some n when n >= 0 -> List.filteri (fun i _ -> i < n) deduped
      | _ -> deduped
    in
    Decompose.Persist.save file kept;
    Printf.printf "%s: %d curves in, %d kept\n" file (List.length entries)
      (List.length kept)
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Rewrite a snapshot file: validate, drop duplicate keys, optionally \
          truncate to --max curves")
    Term.(const run $ cache_file_pos $ max_entries)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Warm, inspect and compact persistent decomposition-curve snapshots")
    [ cache_stats_cmd; cache_warm_cmd; cache_dump_cmd; cache_gc_cmd ]

(* ---------- calibration ---------- *)

let calibration_cmd =
  let qubits = Arg.(value & opt int 54 & info [ "qubits"; "n" ] ~doc:"Device size.") in
  let types = Arg.(value & opt int 8 & info [ "types" ] ~doc:"Number of gate types.") in
  let run qubits types =
    (* the model's grid needs a coupler and a gate type to price *)
    if qubits < 2 then
      invalid_arg (Printf.sprintf "--qubits must be at least 2 (got %d)" qubits);
    if types < 1 then invalid_arg (Printf.sprintf "--types must be at least 1 (got %d)" types);
    let m = Calibration.Model.default in
    let pairs = Calibration.Model.grid_pairs qubits in
    Printf.printf "%d qubits (~%d couplers), %d gate types:\n" qubits pairs types;
    Printf.printf "  circuits per type per pair: %d\n" (Calibration.Model.circuits_per_type_pair m);
    Printf.printf "  total calibration circuits: %.3e\n"
      (float_of_int (Calibration.Model.total_circuits m ~n_pairs:pairs ~n_types:types));
    Printf.printf "  time: %.0f h serial, %.0f h with parallel batches\n"
      (Calibration.Model.time_hours_serial m ~n_pairs:pairs ~n_types:types)
      (Calibration.Model.time_hours_parallel m ~n_types:types);
    Printf.printf "  continuous fSim family overhead vs this set: %.0fx\n"
      (Calibration.Model.continuous_overhead_factor ~n_types:types)
  in
  Cmd.v
    (Cmd.info "calibration" ~doc:"Evaluate the Sec IX calibration cost model")
    Term.(const run $ qubits $ types)

(* ---------- qasm ---------- *)

let qasm_cmd =
  let run (_, u) gate output =
    let d = Decompose.Nuop.decompose_exact (known_gate_types gate) ~target:u in
    let circuit = Decompose.Nuop.to_circuit d ~n_qubits:2 ~qubits:(0, 1) in
    match output with
    | Some path ->
      Qcir.Qasm.to_file path circuit;
      Printf.printf "wrote %s (%d instructions)\n" path (Qcir.Circuit.length circuit)
    | None -> print_string (Qcir.Qasm.to_string circuit)
  in
  Cmd.v
    (Cmd.info "qasm" ~doc:"Decompose a unitary and export OpenQASM 2.0")
    Term.(
      const run $ target_term $ gate_arg $ output_arg "Write the OpenQASM 2.0 file here.")

(* ---------- weyl ---------- *)

let weyl_cmd =
  let run (_, u) =
    Printf.printf "minimal CNOT/CZ count: %d\n" (Decompose.Weyl.cnot_count u);
    let g1, g2 = Decompose.Weyl.makhlin_invariants u in
    Printf.printf "Makhlin invariants: G1 = %.6f%+.6fi, G2 = %.6f\n" g1.Complex.re
      g1.Complex.im g2;
    let c1, c2, c3 = Decompose.Weyl.coordinates u in
    Printf.printf "Weyl coordinates: (%.6f, %.6f, %.6f)  (pi/4 = %.6f)\n" c1 c2 c3
      (Float.pi /. 4.0)
  in
  Cmd.v
    (Cmd.info "weyl" ~doc:"Weyl-chamber analysis of a two-qubit unitary")
    Term.(const run $ target_term)

(* ---------- experiment ---------- *)

let paper_arg = Arg.(value & flag & info [ "paper" ] ~doc:"Paper-scale sample counts.")

let with_output output f =
  match output with
  | None -> f stdout
  | Some file -> Out_channel.with_open_text file f

(* BENCH_<date>.json names and the artifact's "date" stamp in UTC
   (Obs.Clock wraps gmtime), so a run's artifact name does not depend on
   the machine's timezone. *)
let today () = Obs.Clock.utc_date (Obs.Clock.now ())

(* Run every entry into one nuop-bench/1 artifact, write it, then read
   back what was written and check it names every entry. *)
let write_artifact cfg ~scale ~output entries =
  let runs =
    List.map
      (fun e ->
        let doc, seconds = Core.Registry.run cfg e in
        (e, doc, seconds))
      entries
  in
  let text = Njson.to_string (Core.Registry.artifact ~date:(today ()) ~scale runs) ^ "\n" in
  let written =
    match output with
    | None ->
      print_string text;
      flush stdout;
      text
    | Some file ->
      Out_channel.with_open_text file (fun oc -> output_string oc text);
      In_channel.with_open_bin file In_channel.input_all
  in
  let names = List.map (fun (e : Core.Registry.entry) -> e.name) entries in
  match (Core.Registry.check_artifact ~names written, output) with
  | Error msg, _ ->
    invalid_arg
      (Printf.sprintf "artifact %s: %s" (Option.value output ~default:"on stdout") msg)
  | Ok _, None -> ()
  | Ok n, Some file -> Printf.printf "wrote %s: all %d experiments present\n%!" file n

(* `--cache FILE` runs every selected experiment twice: once cold (empty
   decomposition cache) and once warmed from FILE, which is (re)written
   from the cold run's curves in between.  Because curves are
   deterministic, the two report texts must be byte-identical whenever
   the report itself embeds no cache statistics (the ablations
   pass-metrics table legitimately differs: its misses become warm hits).
   The comparison table is the warm/cold wall-time evidence for the
   persistence layer. *)
let run_cached oc cfg file entries =
  let rows =
    List.map
      (fun (e : Core.Registry.entry) ->
        Decompose.Cache.clear ();
        let cold_doc, cold_s = Core.Registry.run ~attrs:[ ("mode", "cold") ] cfg e in
        (* grow the snapshot: existing file entries merge in (never
           clobbering this run's), then the union is saved atomically *)
        if Sys.file_exists file then ignore (Decompose.Cache.load_from_file file);
        let saved = Decompose.Cache.save_to_file file in
        Decompose.Cache.clear ();
        let loaded = Decompose.Cache.load_from_file file in
        let warm_doc, warm_s = Core.Registry.run ~attrs:[ ("mode", "warm") ] cfg e in
        Printf.fprintf oc "[%s: cold %.1f s, warm %.1f s, %d curves saved, %d loaded]\n%!"
          e.name cold_s warm_s saved loaded;
        [
          e.name;
          Printf.sprintf "%.2f" cold_s;
          Printf.sprintf "%.2f" warm_s;
          (if warm_s > 0.0 then Printf.sprintf "%.1fx" (cold_s /. warm_s) else "-");
          (if Core.Report.render_text cold_doc = Core.Report.render_text warm_doc then "yes"
           else "no");
        ])
      entries
  in
  Printf.fprintf oc "\nWarm-vs-cold wall time (cache file %s):\n" file;
  output_string oc
    (Core.Report.block_to_string
       (Core.Report.Table
          {
            header = [ "experiment"; "cold (s)"; "warm (s)"; "speedup"; "identical" ];
            rows;
          }))

let experiment_cmd =
  let names_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "One or more of: %s; or $(b,all) for every one."
               (String.concat ", " Core.Registry.names)))
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Write one nuop-bench/1 artifact holding every selected experiment \
             (to stdout, $(b,-o), or BENCH_<date>.json for $(b,all)), then read it \
             back and check it names each one.")
  in
  let cache =
    Arg.(
      value & opt (some string) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:
            "Run each experiment cold, save its curves to $(docv), reload them and \
             run it warm; print the wall times and whether the two reports are \
             identical.")
  in
  let is_all name = String.lowercase_ascii name = "all" in
  let run names paper json output cache =
    (* case-insensitive lookup; a miss raises Invalid_argument listing
       every known experiment (caught by the entry point below) *)
    let entries =
      List.concat_map
        (fun name -> if is_all name then Core.Registry.all else [ Core.Registry.find_exn name ])
        names
    in
    let cfg = if paper then Core.Config.paper else Core.Config.quick in
    match (json, cache) with
    | true, Some _ -> invalid_arg "--cache and --json cannot be combined"
    | false, Some file -> with_output output (fun oc -> run_cached oc cfg file entries)
    | true, None ->
      let output =
        match (output, names) with
        | None, [ name ] when is_all name ->
          (* never clobber an earlier artifact from the same UTC day:
             take BENCH_<date>-2.json, -3.json, ... and say so *)
          let default = Printf.sprintf "BENCH_%s.json" (today ()) in
          let path = Core.Report.fresh_path default in
          if path <> default then
            Obs.Log.warn "nuop: %s already exists; writing %s instead" default path;
          Some path
        | _ -> output
      in
      write_artifact cfg ~scale:(if paper then "paper" else "quick") ~output entries
    | false, None ->
      with_output output (fun oc ->
          List.iter
            (fun (e : Core.Registry.entry) ->
              let doc, seconds = Core.Registry.run cfg e in
              output_string oc (Core.Report.render_text doc);
              Printf.fprintf oc "\n[%s done in %.1f s]\n%!" e.name seconds)
            entries)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run the paper's table/figure reproductions")
    Term.(
      const run $ names_arg $ paper_arg $ json
      $ output_arg "Write the reports (or the artifact) to $(docv)."
      $ cache)

(* ---------- trace ---------- *)

(* Telemetry-trace tooling over the JSONL files `--trace` / NUOP_TRACE
   write (schema nuop-trace/1).  `check` is the validator the CI alias
   pipes a traced compile into: every line must parse through Njson and
   span start/end events must nest and balance per domain. *)

let trace_check_cmd =
  let file =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace file written by $(b,--trace).")
  in
  let run file =
    match Obs.Trace.check_file file with
    | Ok s ->
      Printf.printf
        "%s: %d events — %d spans (max depth %d), %d counters, %d gauges, %d log \
         messages; spans nest and balance\n"
        file s.Obs.Trace.events s.Obs.Trace.spans s.Obs.Trace.max_depth
        s.Obs.Trace.counters s.Obs.Trace.gauges s.Obs.Trace.messages
    | Error reason -> invalid_arg (Printf.sprintf "trace file %s: %s" file reason)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate a telemetry trace: every line parses as JSON and spans \
          nest/balance per domain")
    Term.(const run $ file)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Validate JSONL telemetry traces (schema nuop-trace/1)")
    [ trace_check_cmd ]

(* ---------- serve / request ---------- *)

let serve_cmd =
  let socket =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) (one NDJSON connection per \
             client).  Without it the server speaks NDJSON on stdin/stdout and \
             drains at EOF.")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded job-queue depth; a full queue answers $(b,overloaded) \
             immediately instead of stalling the client.")
  in
  let workers =
    Arg.(
      value & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains sharing the warm decomposition cache (default: the \
             Domain-pool size, NUOP_DOMAINS).")
  in
  let run socket queue workers =
    let config =
      {
        Service.Server.default_config with
        Service.Server.queue_depth = queue;
        workers =
          (match workers with
          | Some w -> w
          | None -> Service.Server.default_config.Service.Server.workers);
      }
    in
    let t = Service.Server.create config in
    match socket with
    | Some path -> Service.Server.serve_socket t path
    | None -> Service.Server.serve_channels t stdin stdout
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident compilation server (NDJSON protocol nuop-rpc/1 over \
          stdio or a Unix-domain socket)")
    Term.(const run $ socket $ queue $ workers)

let request_cmd =
  let socket =
    Arg.(
      required & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Socket of a running $(b,nuop serve).")
  in
  let op =
    Arg.(
      value & pos 0 string "ping"
      & info [] ~docv:"OP" ~doc:"Op: compile, score, devices, stats, ping.")
  in
  let params =
    Arg.(
      value & opt (some string) None
      & info [ "params" ] ~docv:"JSON"
          ~doc:
            "Op parameters as a JSON object, e.g. \
             '{\"app\":\"qft\",\"qubits\":5,\"isa\":\"S1\"}'.")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-request deadline; a late answer becomes a $(b,timeout) error.")
  in
  let id =
    Arg.(
      value & opt string "1"
      & info [ "id" ] ~docv:"ID" ~doc:"Request id echoed in the response.")
  in
  let raw =
    Arg.(
      value & opt (some string) None
      & info [ "raw" ] ~docv:"LINE"
          ~doc:
            "Send $(docv) verbatim instead of building a request — for exercising \
             the server's protocol errors.")
  in
  (* Exit 0 whenever a response line arrives: a typed error (bad_request,
     timeout, ...) is the protocol working, not a transport failure. *)
  let run socket op params deadline id raw =
    let line =
      match raw with
      | Some l -> l
      | None ->
        let body =
          match params with
          | None -> []
          | Some p -> (
            match Njson.of_string_result p with
            | Ok (Njson.Obj kvs) -> kvs
            | Ok _ -> invalid_arg "--params must be a JSON object"
            | Error e -> invalid_arg (Printf.sprintf "--params: %s" e))
        in
        let fields =
          (("id", Njson.String id) :: ("op", Njson.String op)
          :: Option.to_list
               (Option.map (fun ms -> ("deadline_ms", Njson.Float ms)) deadline))
          @ body
        in
        Njson.to_string ~indent:0 (Njson.Obj fields)
    in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX socket)
     with Unix.Unix_error (e, _, _) ->
       invalid_arg
         (Printf.sprintf "cannot connect to %s (%s) — is nuop serve running?" socket
            (Unix.error_message e)));
    let oc = Unix.out_channel_of_descr fd in
    let ic = Unix.in_channel_of_descr fd in
    output_string oc line;
    output_char oc '\n';
    flush oc;
    (match input_line ic with
    | response -> print_endline response
    | exception End_of_file ->
      invalid_arg "connection closed before a response arrived");
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send one request to a running $(b,nuop serve) socket and print the reply")
    Term.(const run $ socket $ op $ params $ deadline $ id $ raw)

(* ---------- entry point ---------- *)

(* The global --trace FILE flag is shared by every subcommand, so it is
   peeled off argv before Cmdliner dispatch (Cmdliner has no true global
   options across a command group). *)
let strip_trace_flag args =
  let prefix = "--trace=" in
  let plen = String.length prefix in
  let rec loop acc trace = function
    | [] -> Ok (List.rev acc, trace)
    | "--trace" :: [] -> Error "option --trace needs a FILE argument"
    | "--trace" :: file :: rest -> loop acc (Some file) rest
    | a :: rest when String.length a > plen && String.sub a 0 plen = prefix ->
      loop acc (Some (String.sub a plen (String.length a - plen))) rest
    | a :: rest -> loop (a :: acc) trace rest
  in
  loop [] None args

let () =
  let doc = "calibration & expressivity-efficient quantum instruction sets (ISCA 2021 reproduction)" in
  let info = Cmd.info "nuop" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        decompose_cmd;
        devices_cmd;
        study_cmd;
        compile_cmd;
        cache_cmd;
        calibration_cmd;
        qasm_cmd;
        weyl_cmd;
        experiment_cmd;
        trace_cmd;
        serve_cmd;
        request_cmd;
      ]
  in
  (* telemetry first: NUOP_TRACE, overridden by an explicit --trace FILE
     anywhere on the command line (both JSONL, closed at exit) *)
  Obs.Trace.init_from_env ();
  (* surface a malformed NUOP_LOG_LEVEL even on runs that log nothing *)
  Obs.Log.check_env ();
  let argv =
    match strip_trace_flag (Array.to_list Sys.argv |> List.tl) with
    | Error msg ->
      Obs.Log.error "nuop: %s" msg;
      exit Cmd.Exit.cli_error
    | Ok (rest, trace) ->
      (match trace with Some file -> Obs.Trace.enable_file file | None -> ());
      Array.of_list (Sys.argv.(0) :: rest)
  in
  (* warm the decomposition cache from NUOP_CACHE_FILE before any
     subcommand runs; corrupt or missing files warn and start cold *)
  ignore (Decompose.Cache.warm_from_env ());
  (* bad user input (unknown device/set/app, malformed snapshot) raises
     Invalid_argument with a self-explanatory message — print it as a
     CLI error instead of a backtrace *)
  exit
    (try Cmd.eval ~catch:false ~argv group
     with Invalid_argument msg ->
       prerr_endline ("nuop: " ^ msg);
       Cmd.Exit.cli_error)
