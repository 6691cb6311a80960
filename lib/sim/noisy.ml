(* Noisy circuit execution: the paper's Qiskit Aer noise policy (Sec VI),
   written once.

   After every gate, depolarizing noise at the gate's error rate, then
   amplitude damping (T1) and dephasing (T2) for the gate's duration.
   Readout error is applied classically to the final probabilities.
   [execute] walks a circuit and applies this policy to any simulator
   state through four operations; the exact density simulator below and
   the Monte Carlo sampler (Trajectory) are its two consumers.

   The per-instruction two-qubit error rate comes from a caller-supplied
   function (the compiler pipeline computes it from calibration data and
   the chosen hardware gate type), so the simulator stays independent of
   how executables were produced. *)

type noise_model = {
  twoq_error : int -> Qcir.Instr.t -> float;
      (** instruction index and instruction -> depolarizing probability *)
  oneq_error : int -> float;  (** per qubit *)
  readout_error : int -> float;  (** per qubit *)
  t1 : int -> float;
  t2 : int -> float;
  duration_1q : float;
  duration_2q : float;
}

let ideal =
  {
    twoq_error = (fun _ _ -> 0.0);
    oneq_error = (fun _ -> 0.0);
    readout_error = (fun _ -> 0.0);
    t1 = (fun _ -> infinity);
    t2 = (fun _ -> infinity);
    duration_1q = 0.0;
    duration_2q = 0.0;
  }

(* Each operation is called only when its parameter is positive, so a
   sampler draws no random number for a noiseless step. *)
let execute ?schedule ~gate ~depolarize ~amplitude_damp ~phase_damp model circuit =
  let decohere duration q =
    if Float.is_finite (model.t1 q) && duration > 0.0 then begin
      let gamma, lambda =
        Channel.damping_params ~t1:(model.t1 q) ~t2:(model.t2 q) ~duration
      in
      if gamma > 0.0 then amplitude_damp q gamma;
      if lambda > 0.0 then phase_damp q lambda
    end
  in
  (* the gate and its depolarizing error; returns its qubits and duration *)
  let step index instr =
    gate instr;
    let qs = Qcir.Instr.qubits instr in
    let p, duration =
      match Array.length qs with
      | 1 -> (model.oneq_error qs.(0), model.duration_1q)
      | 2 -> (model.twoq_error index instr, model.duration_2q)
      | _ -> invalid_arg "Noisy.execute: gates beyond two qubits are not supported"
    in
    if p > 0.0 then depolarize p qs;
    (qs, duration)
  in
  match schedule with
  | None ->
    List.iteri
      (fun index instr ->
        let qs, duration = step index instr in
        Array.iter (decohere duration) qs)
      (Qcir.Circuit.instrs circuit)
  | Some sched ->
    let n = Qcir.Circuit.n_qubits circuit in
    Schedule.iter_moments
      (fun moment ->
        List.iter (fun (index, instr) -> ignore (step index instr)) moment.Schedule.instrs;
        for q = 0 to n - 1 do
          decohere moment.Schedule.duration q
        done)
      sched

let density ?schedule model circuit =
  let rho = Density.create (Qcir.Circuit.n_qubits circuit) in
  let channel ch qs = Density.apply_channel rho ch qs in
  execute ?schedule model circuit ~gate:(Density.apply_instr rho)
    ~depolarize:(fun p qs ->
      channel
        (if Array.length qs = 1 then Channel.depolarizing_1q p else Channel.depolarizing_2q p)
        qs)
    ~amplitude_damp:(fun q gamma -> channel (Channel.amplitude_damping gamma) [| q |])
    ~phase_damp:(fun q lambda -> channel (Channel.phase_damping lambda) [| q |]);
  rho

let run model circuit = density model circuit

(* The schedule-aware mode over the shared timed executable
   (Schedule.t): decoherence acts on EVERY qubit for each moment's
   duration — idle qubits decay too, as on real hardware.  [run] above
   is the cheaper acting-qubits-only approximation.  Without an explicit
   schedule the model's two device-wide scalars time the moments. *)
let model_schedule model circuit =
  Schedule.of_circuit circuit
    ~durations:
      (Schedule.uniform ~duration_1q:model.duration_1q ~duration_2q:model.duration_2q)

let run_scheduled ?schedule model circuit =
  let schedule =
    match schedule with Some s -> s | None -> model_schedule model circuit
  in
  density ~schedule model circuit

let output_probabilities ?schedule model circuit =
  let rho = density ?schedule model circuit in
  let n = Density.n_qubits rho in
  let probs = Density.probabilities rho in
  let error_rates = Array.init n model.readout_error in
  if Array.exists (fun e -> e > 0.0) error_rates then
    Channel.apply_readout_error ~error_rates probs
  else probs
