(** The service's op implementations, and the render helpers they share
    with the one-shot CLI.

    Byte-identity by construction: [nuop compile]/[nuop study]/[nuop
    devices list] print exactly the strings these functions return, and
    the served [compile]/[score]/[devices] results embed the same
    strings in their ["output"] field — so a served response equals the
    one-shot CLI output whatever worker produced it and in whatever
    order requests completed.

    The compile/score parameters are defined once, in the tables below;
    the CLI maps each entry to a flag, builds the body the server would
    get and runs the same op. *)

type 'a param = { key : string; flags : string list; doc : string; kind : 'a Protocol.kind }
(** [key] is the JSON key; [flags] the CLI names ([[]]: RPC only). *)

type entry = P : 'a param -> entry

val compile_params : entry list
(** isa, app, qubits, device, seed, optimize, trace_passes, schedule, print, qasm *)

val score_params : entry list
(** isa, app, qubits (at most 12), device, seed, count *)

val warm_params : entry list
(** what [nuop cache warm] takes: isa, app, qubits, device, seed *)

val compile :
  Njson.t -> (string * string * Compiler.Pipeline.compiled, Protocol.err) result
(** Check the body against [compile_params] ({!Protocol.unknown_field},
    {!Protocol.field}), the app's narrowest width and that the circuit
    fits the device, then compile: an ["app/isa"] label, the [nuop
    compile] text and the result. *)

val score :
  Njson.t -> (string * Core.Study.metric * Core.Study.result, Protocol.err) result
(** The same checks against [score_params], then the [nuop study] text,
    the app's metric and the suite result. *)

val resolve_device : ?qubits:int -> string -> Device.t
(** A [--device]-style spec: a registry name (case-insensitive) or a
    path to a JSON snapshot written by [nuop devices dump]. *)

val benchmark_circuit : app:string -> qubits:int -> seed:int -> Qcir.Circuit.t
(** One benchmark circuit ([qv], [qaoa], [qft], [fh]) at the given width
    and seed — the circuit compile and [cache warm] use. *)

val study_metric : string -> Core.Study.metric
(** The metric each benchmark app is scored under ([qv] → Hop, [qaoa] →
    XED, [qft] → state fidelity, [fh] → XEB). *)

val study_circuits :
  app:string -> qubits:int -> count:int -> seed:int -> Qcir.Circuit.t list
(** The circuit suite [nuop study] evaluates for one app. *)

val compile_text :
  ?optimize:bool ->
  ?trace_passes:bool ->
  ?print_schedule:bool ->
  ?print_circuit:bool ->
  device:Device.t ->
  isa:Isa.Set.t ->
  isa_name:string ->
  app:string ->
  Qcir.Circuit.t ->
  string * Compiler.Pipeline.compiled
(** Compile through the pass manager and render the exact [nuop
    compile] stdout text (headline lines, then the optional pass-metrics
    table, schedule timeline and circuit rendering). *)

val study_text :
  device:Device.t ->
  isa:Isa.Set.t ->
  metric:Core.Study.metric ->
  Qcir.Circuit.t list ->
  string * Core.Study.result
(** Evaluate a suite and render the exact [nuop study] results table. *)

val devices_list_text : unit -> string
(** The exact [nuop devices list] table. *)

val execute : Protocol.request -> (Njson.t, Protocol.err) result
(** Run one request's op (everything except [stats], which only the
    server can answer).  Total: malformed parameters, unknown devices /
    sets / apps and bad QASM come back as typed [Bad_request] errors,
    never exceptions. *)
