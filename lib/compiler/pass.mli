(** First-class compiler passes over a shared mutable context.

    A pass is a named mutation of a {!Context.t}; {!Pass_manager.run}
    executes a stack of passes and records per-pass metrics, and
    [Pipeline.compile] is a thin wrapper around {!default_stack}. *)

open Linalg

type options = {
  nuop : Decompose.Nuop.options;
  approximate : bool;  (** Eq 2 approximate mode vs exact thresholded mode *)
  exact_threshold : float;
  adaptive : bool;  (** noise adaptivity across gate types *)
}

val default_options : options

module Context : sig
  type t = {
    device : Device.t;
    cal : Device.Calibration.t;  (** [Device.calibration device], cached *)
    isa : Isa.Set.t;
    options : options;
    n_logical : int;
    mutable placement : int array option;  (** logical -> device start qubit *)
    mutable circuit : Qcir.Circuit.t;
        (** logical space, then device space after [route], then compact
            space after [compact] *)
    mutable errors : float array;
        (** per instruction index, aligned with [circuit] (0.0 for 1Q) *)
    mutable final_layout : int array;  (** logical -> current-space qubit *)
    mutable qubit_map : int array;  (** compact -> device qubit (after [compact]) *)
    mutable swap_count : int;
    mutable compacted : bool;
    mutable schedule : Schedule.t option;
        (** timed executable of [circuit], set by the schedule pass and
            invalidated by every circuit-mutating pass *)
  }

  val create :
    ?options:options ->
    device:Device.t ->
    isa:Isa.Set.t ->
    ?placement:int array ->
    Qcir.Circuit.t ->
    t

  val placement_exn : t -> int array
  (** The placement, or [Invalid_argument] if no placement pass ran. *)
end

type t

val make : string -> (Context.t -> unit) -> t
val name : t -> string
val run : t -> Context.t -> unit

val decompose_on_edge :
  options:options ->
  cal:Device.Calibration.t ->
  isa:Isa.Set.t ->
  edge:int * int ->
  target:Mat.t ->
  Decompose.Nuop.t
(** Best decomposition of one application unitary on a device edge across
    the instruction set's gate types (noise-adaptive unless
    [options.adaptive] is false). *)

(** {2 The built-in passes} *)

val placement : t
(** Noise-aware best-line placement ([Mapping.best_line]); a placement
    already present in the context (caller-provided) is kept. *)

val route : t
(** SWAP-insertion routing ({!Router.route}, directional walk) with the
    instruction set's calibrated error rates as the tie-break edge
    cost. *)

val lower : t
(** Noise-adaptive NuOp lowering: each routed two-qubit application
    unitary becomes hardware gates of the best type (Eq 2), with
    per-instruction error annotations. *)

val merge_oneq : t
(** 1Q-merge peephole: fuses runs of adjacent single-qubit gates on a
    qubit into one U3 via ZYZ extraction, cutting the per-layer 1Q error
    Eq 2's F_h charges.  Preserves the circuit unitary up to global
    phase. *)

val elide_trivial : t
(** Drops instructions whose gate is the identity up to global phase
    within 1e-7 — e.g. zero-angle decompositions. *)

val compact : t
(** Renumbers the circuit onto the qubits it actually touches, recording
    the compact->device [qubit_map]. *)

val schedule_pass : t
(** Attaches the timed executable ({!Schedule.t} over calibrated
    durations, see {!timed_schedule}) to the context.  Last pass of the
    built-in stacks. *)

(** {2 Calibrated timing} *)

val calibrated_durations :
  cal:Device.Calibration.t -> to_device:(int -> int) -> int -> Qcir.Instr.t -> float
(** Duration oracle over calibration data: the device-wide 1Q duration
    for single-qubit gates, the per-edge per-gate-type duration (keyed by
    gate name, scalar fallback) for two-qubit gates.  [to_device] maps
    the circuit's qubit space onto device qubits. *)

val timed_durations : Context.t -> int -> Qcir.Instr.t -> float
(** {!calibrated_durations} for the context's current circuit space:
    identity qubit mapping before compaction, [qubit_map] lookups
    after. *)

val timed_schedule : Context.t -> Schedule.t
(** ASAP schedule of the context's current circuit under
    {!timed_durations}. *)

val edge_cost : cal:Device.Calibration.t -> isa:Isa.Set.t -> int * int -> float
(** Best calibrated error across the set's gate types on an edge (the
    router tie-break). *)

val errors_of_decomposition :
  cal:Device.Calibration.t ->
  edge:int * int ->
  Decompose.Nuop.t ->
  Qcir.Instr.t list ->
  float list
(** Per-instruction error rates for the instructions NuOp emitted. *)

(** {2 Rewrites behind the peephole passes} (exposed for tests/benches) *)

val merge_oneq_rewrite : Qcir.Circuit.t -> float array -> Qcir.Circuit.t * float array
val elide_rewrite : Qcir.Circuit.t -> float array -> Qcir.Circuit.t * float array

(** {2 Stacks} *)

val default_stack : t list
(** place -> route -> lower -> compact -> schedule: stage-for-stage the
    seed pipeline (identical circuit output) plus the timing
    attachment. *)

val optimized_stack : t list
(** [default_stack] plus [merge_oneq] and [elide_trivial] before
    compaction. *)
