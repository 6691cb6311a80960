(* Noise channels.  The three channels of the paper's noise model are
   kept as parameters (a kind) and applied in closed form by the density
   simulator; their Kraus sets are built on demand.  Any other Kraus set
   is a General channel, applied through its superoperator.

   With vec(rho) indexed so that a channel on qubit q acts on index-qubits
   (q, q+n) — ket bit more significant — the superoperator is
   S = sum_m K_m (x) conj(K_m). *)

open Linalg

type kind =
  | Depolarizing of float
  | Amplitude_damping of float
  | Phase_damping of float
  | General of Mat.t list

(* [label] names a General channel; the structured kinds format their
   names on demand, so building one per gate allocates no string *)
type t = { dim : int; kind : kind; label : string }

let make name kraus =
  match kraus with
  | [] -> invalid_arg "Channel.make: no Kraus operators"
  | first :: _ ->
    let d = Mat.rows first in
    (* completeness: sum K^dag K = I *)
    let acc =
      List.fold_left (fun acc k -> Mat.add acc (Mat.mul (Mat.dagger k) k)) (Mat.zero d d) kraus
    in
    if not (Mat.equal ~eps:1e-9 acc (Mat.identity d)) then
      invalid_arg (Printf.sprintf "Channel.make: %s is not trace preserving" name);
    { dim = d; kind = General kraus; label = name }

let kind t = t.kind
let dim t = t.dim

let name t =
  match t.kind with
  | Depolarizing p when t.dim = 2 -> Printf.sprintf "depol1(%.4g)" p
  | Depolarizing p -> Printf.sprintf "depol2(%.4g)" p
  | Amplitude_damping gamma -> Printf.sprintf "amp_damp(%.4g)" gamma
  | Phase_damping lambda -> Printf.sprintf "phase_damp(%.4g)" lambda
  | General _ -> t.label

let real_diag2 a b =
  let r x = { Complex.re = x; im = 0.0 } in
  Mat.of_rows [ [ r a; Complex.zero ]; [ Complex.zero; r b ] ]

let kraus t =
  match t.kind with
  | General kraus -> kraus
  | Depolarizing p when t.dim = 2 ->
    (* (1-p) rho + p/3 sum_P P rho P over X, Y, Z *)
    Mat.scale_real (Float.sqrt (1.0 -. p)) Gates.Oneq.identity
    :: List.map
         (fun m -> Mat.scale_real (Float.sqrt (p /. 3.0)) m)
         [ Gates.Oneq.x; Gates.Oneq.y; Gates.Oneq.z ]
  | Depolarizing p ->
    (* (1-p) rho + p/15 sum over the 15 non-identity two-qubit Paulis *)
    let paulis = ref [] in
    for a = 0 to 3 do
      for b = 0 to 3 do
        if a <> 0 || b <> 0 then
          paulis :=
            Mat.kron (Gates.Oneq.pauli_of_index a) (Gates.Oneq.pauli_of_index b)
            :: !paulis
      done
    done;
    Mat.scale_real (Float.sqrt (1.0 -. p)) (Mat.identity 4)
    :: List.map (fun m -> Mat.scale_real (Float.sqrt (p /. 15.0)) m) !paulis
  | Amplitude_damping gamma ->
    let k1 = Mat.zero 2 2 in
    Mat.set k1 0 1 { Complex.re = Float.sqrt gamma; im = 0.0 };
    [ real_diag2 1.0 (Float.sqrt (1.0 -. gamma)); k1 ]
  | Phase_damping lambda ->
    [ real_diag2 1.0 (Float.sqrt (1.0 -. lambda)); real_diag2 0.0 (Float.sqrt lambda) ]

let superoperator t =
  let d = dim t in
  List.fold_left
    (fun acc k -> Mat.add acc (Mat.kron k (Mat.conj k)))
    (Mat.zero (d * d) (d * d))
    (kraus t)

let identity d = make "identity" [ Mat.identity d ]

let check_unit fn x =
  if not (x >= 0.0 && x <= 1.0) then
    invalid_arg (Printf.sprintf "Channel.%s: %g is not in [0, 1]" fn x)

let depolarizing_1q p =
  check_unit "depolarizing_1q" p;
  if p = 0.0 then identity 2 else { dim = 2; kind = Depolarizing p; label = "" }

let depolarizing_2q p =
  check_unit "depolarizing_2q" p;
  if p = 0.0 then identity 4 else { dim = 4; kind = Depolarizing p; label = "" }

(* T1 relaxation for duration t: gamma = 1 - exp(-t/T1). *)
let amplitude_damping gamma =
  check_unit "amplitude_damping" gamma;
  { dim = 2; kind = Amplitude_damping gamma; label = "" }

(* Pure dephasing for duration t: lambda = 1 - exp(-t/Tphi) with
   1/Tphi = 1/T2 - 1/(2 T1). *)
let phase_damping lambda =
  check_unit "phase_damping" lambda;
  { dim = 2; kind = Phase_damping lambda; label = "" }

let damping_params ~t1 ~t2 ~duration =
  let gamma = 1.0 -. Float.exp (-.duration /. t1) in
  (* pure dephasing rate; clamp in case T2 > 2 T1 in synthetic data *)
  let inv_tphi = Float.max 0.0 ((1.0 /. t2) -. (1.0 /. (2.0 *. t1))) in
  let lambda = 1.0 -. Float.exp (-.duration *. inv_tphi) in
  (gamma, lambda)

(* Readout error as a classical bit-flip confusion on probabilities. *)
let apply_readout_error ~error_rates probs =
  let n_qubits =
    let rec log2 acc k = if k <= 1 then acc else log2 (acc + 1) (k / 2) in
    log2 0 (Array.length probs)
  in
  assert (Array.length error_rates = n_qubits);
  let cur = ref (Array.copy probs) in
  for q = 0 to n_qubits - 1 do
    let p = error_rates.(q) in
    if p > 0.0 then begin
      let next = Array.make (Array.length probs) 0.0 in
      Array.iteri
        (fun idx pr ->
          let flipped = idx lxor (1 lsl q) in
          next.(idx) <- next.(idx) +. (pr *. (1.0 -. p));
          next.(flipped) <- next.(flipped) +. (pr *. p))
        !cur;
      cur := next
    end
  done;
  !cur
