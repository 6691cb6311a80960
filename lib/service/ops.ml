(* Op implementations over the compilation stack.

   The render helpers build the same bytes the one-shot CLI prints (the
   CLI calls them too), into a Buffer instead of stdout, so a served
   response can embed CLI-identical text.  The parameter tables below
   are the one definition of what compile/score accept: the service
   reads request bodies against them and the CLI derives its flags from
   them, so both front ends validate the same way.  [execute] is the
   pure part of request handling: body -> result document, with every
   user error as a typed value. *)

let ( let* ) = Result.bind

let bad fmt = Protocol.err Protocol.Bad_request fmt

(* ---------- parameter tables ---------- *)

type 'a param = { key : string; flags : string list; doc : string; kind : 'a Protocol.kind }
type entry = P : 'a param -> entry

let param key flags doc kind = { key; flags; doc; kind }
let int ?(min = min_int) ?(max = max_int) default = Protocol.Int { default; min; max }

let isa =
  param "isa" [ "isa" ] "Instruction set (Table II name, e.g. S1, G7, R5, Full_fSim)."
    (Str "G7")

let app = param "app" [ "app" ] "Benchmark: qv, qaoa, qft, fh." (Str "qaoa")

(* 54 is the largest registered device (sycamore54); scoring simulates
   the density operator (4^n entries), so it stops at 12 *)
let qubits_up_to max =
  param "qubits" [ "qubits"; "n" ] "Circuit width." (int ~min:1 ~max 4)

let qubits = qubits_up_to 54

let device =
  param "device" [ "device" ]
    "Device: a registry name (see $(b,nuop devices list)) or a JSON snapshot file \
     written by $(b,nuop devices dump)."
    (Str "sycamore")

let seed = param "seed" [ "seed" ] "Random seed." (int 2021)
let count = param "count" [ "count" ] "Number of random circuits." (int ~min:1 5)

let optimize =
  param "optimize" [ "optimize"; "O" ]
    "Run the optimized stack (1Q-merge and trivial-gate elision peepholes)." Flag

let trace_passes =
  param "trace_passes" [ "trace-passes" ]
    "Print a per-pass metrics table: wall time, 1Q/2Q/SWAP/depth deltas and \
     decomposition-cache hits for every pass in the stack."
    Flag

let schedule =
  param "schedule" [ "schedule" ]
    "Print the timed executable: one row per ASAP moment with start time, duration \
     (calibrated per gate type) and instructions."
    Flag

let print = param "print" [ "print" ] "Print the compiled circuit." Flag

(* RPC only: OpenQASM 2.0 text, compiled instead of [app] *)
let qasm = param "qasm" [] "" Text
let warm_params = [ P isa; P app; P qubits; P device; P seed ]

let compile_params =
  warm_params @ [ P optimize; P trace_passes; P schedule; P print; P qasm ]

let score_params = [ P isa; P app; P (qubits_up_to 12); P device; P seed; P count ]

(* Check a body against a table: no unknown field, every known one of
   the right type and within its bounds. *)
let read table body =
  let keys = List.map (fun (P p) -> p.key) table in
  match Protocol.unknown_field ~known:keys body with
  | Some e -> Error e
  | None ->
    List.fold_left
      (fun acc (P p) ->
        Result.bind acc (fun () -> Result.map ignore (Protocol.field p.key p.kind body)))
      (Ok ()) table

let ok_exn = function Ok v -> v | Error e -> invalid_arg e.Protocol.message

(* A value of a body [read] accepted (an absent key reads its default). *)
let get body p = ok_exn (Protocol.field p.key p.kind body)

(* ---------- apps ---------- *)

(* The one place app names are dispatched on.  [suite] draws [count]
   circuits of a width; qft and fh are one deterministic circuit. *)
type app = {
  name : string;
  suite : Linalg.Rng.t -> count:int -> int -> Qcir.Circuit.t list;
  metric : Core.Study.metric;
  min_qubits : int;
  even : bool;  (** widths above 4 must be even (narrower ones widen to 4) *)
}

let single f _ ~count:_ n = [ f n ]

(* name, generator, study metric, narrowest width, even widths only *)
let apps =
  List.map
    (fun (name, suite, metric, min_qubits, even) ->
      { name; suite; metric; min_qubits; even })
    Core.Study.
      [
        ("qv", Apps.Qv.circuits, Hop, 2, false);
        ("qaoa", Apps.Qaoa.circuits, Xed, 2, false);
        ("qft", single Apps.Qft.circuit, State_fidelity, 1, false);
        ( "fh", single (fun n -> Apps.Fermi_hubbard.circuit (max 4 n)),
          Xeb_fidelity, 1, true );
      ]

let find_app name =
  match List.find_opt (fun a -> a.name = name) apps with
  | Some a -> Ok a
  | None ->
    let names = String.concat ", " (List.map (fun a -> a.name) apps) in
    Error (bad "field \"app\" must be one of %s (got %S)" names name)

let resolve_device ?qubits spec =
  if Sys.file_exists spec && not (Sys.is_directory spec) then Device.of_file spec
  else Device.Registry.build ?qubits spec

let study_circuits ~app ~qubits ~count ~seed =
  (ok_exn (find_app app)).suite (Linalg.Rng.create seed) ~count qubits

let benchmark_circuit ~app ~qubits ~seed =
  List.hd (study_circuits ~app ~qubits ~count:1 ~seed)

let study_metric app = (ok_exn (find_app app)).metric

(* ---------- render helpers (the CLI's output, as strings) ---------- *)

let compile_text ?(optimize = false) ?(trace_passes = false) ?(print_schedule = false)
    ?(print_circuit = false) ~device ~isa ~isa_name ~app circuit =
  let stack =
    if optimize then Compiler.Pass.optimized_stack else Compiler.Pass.default_stack
  in
  let compiled, metrics =
    Compiler.Pipeline.compile_with_metrics ~stack ~device ~isa circuit
  in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%s on %s via %s stack (%d passes):\n" app isa_name
    (if optimize then "optimized" else "default")
    (List.length stack);
  Printf.bprintf buf
    "  %d instructions, %d two-qubit gates, %d SWAPs, depth %d, %d qubits\n"
    (Qcir.Circuit.length compiled.Compiler.Pipeline.circuit)
    compiled.Compiler.Pipeline.twoq_count compiled.Compiler.Pipeline.swap_count
    (Qcir.Circuit.depth compiled.Compiler.Pipeline.circuit)
    (Array.length compiled.Compiler.Pipeline.qubit_map);
  Printf.bprintf buf "  duration %.1f ns over %d moments, ESP %.4f\n"
    (1e9 *. compiled.Compiler.Pipeline.duration)
    compiled.Compiler.Pipeline.critical_depth
    (Core.Study.esp ~device compiled);
  if trace_passes then
    Buffer.add_string buf
      (Core.Report.block_to_string
         (Core.Report.Table
            {
              header = Compiler.Pass_manager.header;
              rows = Compiler.Pass_manager.rows metrics;
            }));
  if print_schedule then
    Buffer.add_string buf (Schedule.to_string compiled.Compiler.Pipeline.schedule);
  if print_circuit then
    Buffer.add_string buf (Qcir.Printer.render compiled.Compiler.Pipeline.circuit);
  (Buffer.contents buf, compiled)

let study_text ~device ~isa ~metric circuits =
  let r = Core.Study.evaluate_suite ~device ~isa ~metric circuits in
  (Core.Report.block_to_string (Core.Study.results_table ~metric [ r ]), r)

let devices_list_text () =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "%-12s %7s  %s\n" "name" "qubits" "description";
  List.iter
    (fun e ->
      Printf.bprintf buf "%-12s %7d  %s\n" e.Device.Registry.name
        e.Device.Registry.default_qubits e.Device.Registry.description)
    Device.Registry.entries;
  Buffer.contents buf

(* ---------- op execution ---------- *)

(* User errors past the tables live in Invalid_argument (unknown set or
   device, bad snapshot) or Qasm.Parse_error (bad circuit text); both
   become typed Bad_request values here so no op raises on bad input. *)
let guard f =
  match f () with
  | v -> v
  | exception Invalid_argument m -> Error (bad "%s" m)
  | exception Qcir.Qasm.Parse_error e ->
    Error (bad "QASM circuit: %s" (Qcir.Qasm.error_to_string e))

(* The benchmark a body names, checked against its app's width rules. *)
let read_app body =
  let* a = find_app (get body app) in
  let n = get body qubits in
  if n < a.min_qubits then
    Error
      (bad "field \"qubits\" must be >= %d for app %S (got %d)" a.min_qubits a.name n)
  else if a.even && n > 4 && n mod 2 = 1 then
    Error (bad "field \"qubits\" must be even for app %S (got %d)" a.name n)
  else Ok a

(* The device a body names, sized for [circuits], which must fit on it. *)
let place body circuits =
  let width =
    List.fold_left (fun w c -> max w (Qcir.Circuit.n_qubits c)) (get body qubits) circuits
  in
  let spec = get body device in
  let d = resolve_device ~qubits:(max 4 width) spec in
  if width > Device.n_qubits d then
    Error
      (bad "field \"qubits\" must be <= %d on device %S (the circuit needs %d)"
         (Device.n_qubits d) spec width)
  else Ok d

(* One circuit through the pass manager, labelled "app/isa" (the label
   is what [cache warm] reports). *)
let compile body =
  guard @@ fun () ->
  let* () = read compile_params body in
  let isa_name = get body isa in
  let isa = Isa.Set.find_exn isa_name in
  let* app, circuit =
    match get body qasm with
    | Some text -> Ok ("qasm", Qcir.Qasm.of_string text)
    | None ->
      let* a = read_app body in
      let qubits = get body qubits and seed = get body seed in
      Ok (a.name, benchmark_circuit ~app:a.name ~qubits ~seed)
  in
  let* device = place body [ circuit ] in
  let text, compiled =
    compile_text ~optimize:(get body optimize) ~trace_passes:(get body trace_passes)
      ~print_schedule:(get body schedule) ~print_circuit:(get body print) ~device ~isa
      ~isa_name ~app circuit
  in
  Ok (app ^ "/" ^ isa_name, text, compiled)

let score body =
  guard @@ fun () ->
  let* () = read score_params body in
  let isa = Isa.Set.find_exn (get body isa) in
  let* a = read_app body in
  let circuits =
    study_circuits ~app:a.name ~qubits:(get body qubits) ~count:(get body count)
      ~seed:(get body seed)
  in
  let* device = place body circuits in
  let text, r = study_text ~device ~isa ~metric:a.metric circuits in
  Ok (text, a.metric, r)

let run_compile body =
  let* _, text, (c : Compiler.Pipeline.compiled) = compile body in
  Ok
    (Njson.Obj
       [
         ("output", Njson.String text);
         ("instructions", Njson.Int (Qcir.Circuit.length c.circuit));
         ("twoq", Njson.Int c.twoq_count);
         ("swaps", Njson.Int c.swap_count);
         ("depth", Njson.Int (Qcir.Circuit.depth c.circuit));
         ("moments", Njson.Int c.critical_depth);
         ("duration_ns", Njson.Float (1e9 *. c.duration));
       ])

let run_score body =
  let* text, metric, (r : Core.Study.result) = score body in
  Ok
    (Njson.Obj
       [
         ("output", Njson.String text);
         ("isa", Njson.String r.isa_name);
         ("metric", Njson.String (Core.Study.metric_name metric));
         ("mean_value", Njson.Float r.mean_metric);
         ("mean_twoq", Njson.Float r.mean_twoq);
         ("mean_swaps", Njson.Float r.mean_swaps);
         ("mean_duration_ns", Njson.Float (1e9 *. r.mean_duration));
         ("mean_esp", Njson.Float r.mean_esp);
       ])

let run_devices () =
  let device (e : Device.Registry.entry) =
    Njson.Obj
      [
        ("name", Njson.String e.name);
        ("qubits", Njson.Int e.default_qubits);
        ("description", Njson.String e.description);
      ]
  in
  Ok
    (Njson.Obj
       [
         ("output", Njson.String (devices_list_text ()));
         ("devices", Njson.List (List.map device Device.Registry.entries));
       ])

let execute (req : Protocol.request) =
  match req.op with
  | Ping -> Ok (Njson.Obj [ ("pong", Njson.Bool true) ])
  | Compile -> run_compile req.body
  | Score -> run_score req.body
  | Devices -> run_devices ()
  | Stats ->
    (* only the server knows its own queue/worker state *)
    Error
      (Protocol.err Protocol.Internal "stats must be answered by the server front end")
