(* Monte Carlo (quantum trajectory) simulation for circuits too large for
   the exact density simulator (the paper's 10- and 20-qubit
   Fermi-Hubbard runs, Fig 10f).

   The noise policy is Noisy.execute's; this module supplies its
   stochastic operations.  Depolarizing noise: with probability p insert
   a uniformly random non-identity Pauli on the gate's qubits.  Amplitude
   and phase damping: proper Kraus trajectories — branch on K0/K1 with
   the state-dependent probabilities and renormalize.  Expectations over
   trajectories converge to the density-operator result. *)

open Linalg

type noise_model = Noisy.noise_model

let apply_pauli rng state qubits =
  (* pick a uniformly random non-identity Pauli string on the qubits *)
  let k = Array.length qubits in
  let n_paulis = (1 lsl (2 * k)) - 1 in
  let pick = 1 + Rng.int rng n_paulis in
  for j = 0 to k - 1 do
    let idx = (pick lsr (2 * j)) land 3 in
    if idx <> 0 then State.apply_pauli state idx qubits.(j)
  done

(* Kraus trajectory for a single-qubit channel given as [k0; k1]:
   apply K0 with probability ||K0 psi||^2, else K1; renormalize.
   Generic (copy-based) form, kept for tests; the hot paths below use
   one-pass specializations. *)
let apply_kraus_branch rng state kraus q =
  match kraus with
  | [ k0; k1 ] ->
    let trial = State.copy state in
    State.apply_matrix trial k0 [| q |];
    let p0 = State.norm2 trial in
    if Rng.float rng < p0 then begin
      State.apply_matrix state k0 [| q |];
      State.normalize state
    end
    else begin
      State.apply_matrix state k1 [| q |];
      State.normalize state
    end
  | _ -> invalid_arg "Trajectory.apply_kraus_branch: expected two Kraus operators"

(* One-pass amplitude damping: P(decay) = gamma * P(qubit excited).
   K1 moves each |..1..> amplitude to |..0..>; K0 scales the excited
   amplitudes by sqrt(1-gamma).  Both branches renormalize. *)
let apply_amplitude_damping rng state q gamma =
  let re = State.unsafe_re state and im = State.unsafe_im state in
  let dim = State.dim state in
  let bit = 1 lsl q in
  let p_excited = ref 0.0 in
  for idx = 0 to dim - 1 do
    if idx land bit <> 0 then
      p_excited := !p_excited +. ((re.(idx) *. re.(idx)) +. (im.(idx) *. im.(idx)))
  done;
  let p_decay = gamma *. !p_excited in
  if Rng.float rng < p_decay then
    for idx = 0 to dim - 1 do
      if idx land bit <> 0 then begin
        re.(idx lxor bit) <- re.(idx);
        im.(idx lxor bit) <- im.(idx);
        re.(idx) <- 0.0;
        im.(idx) <- 0.0
      end
    done
  else begin
    let scale = Float.sqrt (1.0 -. gamma) in
    for idx = 0 to dim - 1 do
      if idx land bit <> 0 then begin
        re.(idx) <- scale *. re.(idx);
        im.(idx) <- scale *. im.(idx)
      end
    done
  end;
  State.normalize state

(* Phase damping with parameter lambda equals a phase-flip channel with
   probability p = (1 - sqrt(1 - lambda)) / 2 — a cheap stochastic Z. *)
let apply_phase_damping rng state q lambda =
  let p = (1.0 -. Float.sqrt (1.0 -. lambda)) /. 2.0 in
  if Rng.float rng < p then State.apply_pauli state 3 q

let run_one rng model circuit =
  let state = State.create (Qcir.Circuit.n_qubits circuit) in
  Noisy.execute model circuit ~gate:(State.apply_instr state)
    ~depolarize:(fun p qs -> if Rng.float rng < p then apply_pauli rng state qs)
    ~amplitude_damp:(apply_amplitude_damping rng state)
    ~phase_damp:(apply_phase_damping rng state);
  state

(* [trajectories] seeded runs, each handed to [f] as it finishes. *)
let iter_trajectories ~seed ~trajectories model circuit f =
  assert (trajectories > 0);
  let rng = Rng.create seed in
  for _ = 1 to trajectories do
    f (run_one rng model circuit)
  done

(* Mean linear cross-entropy overlap with an ideal state:
   E_traj[ sum_x p_traj(x) p_ideal(x) ]. *)
let mean_ideal_overlap ?(seed = 5) ~trajectories model circuit ~ideal =
  let dim = State.dim ideal in
  let acc = ref 0.0 in
  iter_trajectories ~seed ~trajectories model circuit (fun s ->
      let overlap = ref 0.0 in
      for x = 0 to dim - 1 do
        overlap := !overlap +. (State.probability s x *. State.probability ideal x)
      done;
      acc := !acc +. !overlap);
  !acc /. float_of_int trajectories

(* Mean output probabilities (converges to the density-simulator
   diagonal). *)
let mean_probabilities ?(seed = 5) ~trajectories model circuit =
  let acc = Array.make (1 lsl Qcir.Circuit.n_qubits circuit) 0.0 in
  iter_trajectories ~seed ~trajectories model circuit (fun s ->
      for x = 0 to Array.length acc - 1 do
        acc.(x) <- acc.(x) +. State.probability s x
      done);
  Array.map (fun v -> v /. float_of_int trajectories) acc
