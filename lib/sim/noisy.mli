(** Noisy circuit execution: the paper's Aer-style noise policy
    (depolarizing + T1/T2 damping + readout), applied by one engine to
    the exact density simulator and to Monte Carlo trajectories. *)

type noise_model = {
  twoq_error : int -> Qcir.Instr.t -> float;
  oneq_error : int -> float;
  readout_error : int -> float;
  t1 : int -> float;
  t2 : int -> float;
  duration_1q : float;
  duration_2q : float;
}

val ideal : noise_model

val execute :
  ?schedule:Schedule.t ->
  gate:(Qcir.Instr.t -> unit) ->
  depolarize:(float -> int array -> unit) ->
  amplitude_damp:(int -> float -> unit) ->
  phase_damp:(int -> float -> unit) ->
  noise_model ->
  Qcir.Circuit.t ->
  unit
(** The noise policy, walked once over the circuit: after each [gate],
    [depolarize p qubits] at the gate's error rate, then
    [amplitude_damp q gamma] and [phase_damp q lambda] from the qubit's
    T1/T2.  Each operation is called only with a positive parameter.
    Without [schedule] a gate's own qubits decohere for the gate's
    duration; with one, every qubit decoheres for each moment's
    duration after the moment's gates.  Raises [Invalid_argument] on
    gates beyond two qubits. *)

val run : noise_model -> Qcir.Circuit.t -> Density.t
(** Acting-qubits-only decoherence (the cheap approximation). *)

val model_schedule : noise_model -> Qcir.Circuit.t -> Schedule.t
(** The default timed executable: ASAP moments timed by the model's two
    device-wide duration scalars. *)

val run_scheduled : ?schedule:Schedule.t -> noise_model -> Qcir.Circuit.t -> Density.t
(** Schedule-aware execution over the shared {!Schedule.t}: decoherence
    acts on every qubit — idle ones included — for each moment's
    duration.  [schedule] defaults to {!model_schedule}; the compiler
    passes its calibrated per-gate-type schedule instead. *)

val output_probabilities :
  ?schedule:Schedule.t -> noise_model -> Qcir.Circuit.t -> float array
(** Final probabilities including classical readout error; schedule-aware
    when [schedule] is given, as {!run} otherwise. *)
