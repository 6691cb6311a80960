(* Exact density-operator simulator in vectorized (superoperator) form.

   vec(rho) is a state vector on 2n index-qubits: ket qubit q is bit q,
   bra qubit q is bit q+n, so rho_{r,c} sits at index r + (c << n).
   A unitary U on qubits qs applies as U on the ket bits and conj(U) on
   the bra bits (two independent gate applications, O(4^n) each).  The
   paper's channels (depolarizing, amplitude and phase damping) apply in
   closed form, one O(4^n) pass each; a general Kraus channel applies its
   superoperator matrix to the combined (ket, bra) index-qubit group.
   This avoids the O(8^n) cost of naive rho -> U rho U^dag products. *)

type t = { n_qubits : int; vec : State.t }

let create n_qubits =
  if 2 * n_qubits > State.max_qubits then
    invalid_arg "Density.create: too many qubits for exact simulation";
  (* |0><0| = basis state 0 in the doubled space *)
  { n_qubits; vec = State.create (2 * n_qubits) }

let n_qubits t = t.n_qubits
let copy t = { t with vec = State.copy t.vec }

let get t r c =
  State.amplitude t.vec (r lor (c lsl t.n_qubits))

let trace t =
  let vr = State.unsafe_re t.vec and vi = State.unsafe_im t.vec in
  let re = ref 0.0 and im = ref 0.0 in
  for x = 0 to (1 lsl t.n_qubits) - 1 do
    let idx = x lor (x lsl t.n_qubits) in
    re := !re +. vr.(idx);
    im := !im +. vi.(idx)
  done;
  { Complex.re = !re; im = !im }

let probability t x = (State.unsafe_re t.vec).(x lor (x lsl t.n_qubits))

let probabilities t = Array.init (1 lsl t.n_qubits) (probability t)

let purity t =
  (* Tr(rho^2) = sum |rho_{rc}|^2 for Hermitian rho *)
  State.norm2 t.vec

(* Qubits name rho's n qubits here, not the 2n index-qubits of vec. *)
let check_qubits fn t qubits =
  let k = Array.length qubits in
  for j = 0 to k - 1 do
    let q = qubits.(j) in
    if q < 0 || q >= t.n_qubits then
      invalid_arg
        (Printf.sprintf "Density.%s: qubit %d out of range for %d qubits" fn q t.n_qubits);
    for j' = 0 to j - 1 do
      if qubits.(j') = q then invalid_arg (Printf.sprintf "Density.%s: qubit %d repeated" fn q)
    done
  done

(* U on the ket bits, then conj(U) on the bra bits. *)
let apply_unitary t u qubits =
  check_qubits "apply_unitary" t qubits;
  State.apply_matrix t.vec u qubits;
  State.apply_matrix_conj t.vec u ~offset:t.n_qubits qubits

let apply_instr t instr =
  apply_unitary t (Gates.Gate.matrix (Qcir.Instr.gate instr)) (Qcir.Instr.qubits instr)

(* ---------- closed-form channels ----------

   Each acts on the d x d blocks X = rho restricted to the channel's
   (ket, bra) bits, one block per setting of every other index bit, in
   one streaming pass over vec.  An entry with ket bits <> bra bits on
   the channel's qubits (idx lxor (idx lsr n) has a channel bit set) is
   off the block diagonal and is only scaled; the diagonal of a block is
   updated as a whole when the pass reaches its base entry, the one
   whose channel bits are all clear. *)

(* X <- s X + c Tr(X) I on the 4 x 4 blocks of qubits a, b *)
let depolarize_2q t a b s c =
  let vr = State.unsafe_re t.vec and vi = State.unsafe_im t.vec in
  let n = t.n_qubits in
  let ka = 1 lsl a and kb = 1 lsl b in
  let da = ka lor (ka lsl n) and db = kb lor (kb lsl n) in
  for idx = 0 to (1 lsl (2 * n)) - 1 do
    if (idx lxor (idx lsr n)) land (ka lor kb) <> 0 then begin
      vr.(idx) <- s *. vr.(idx);
      vi.(idx) <- s *. vi.(idx)
    end
    else if idx land (da lor db) = 0 then begin
      let i1 = idx lor da and i2 = idx lor db and i3 = idx lor da lor db in
      let tr_re = vr.(idx) +. vr.(i1) +. vr.(i2) +. vr.(i3) in
      let tr_im = vi.(idx) +. vi.(i1) +. vi.(i2) +. vi.(i3) in
      vr.(idx) <- (s *. vr.(idx)) +. (c *. tr_re);
      vi.(idx) <- (s *. vi.(idx)) +. (c *. tr_im);
      vr.(i1) <- (s *. vr.(i1)) +. (c *. tr_re);
      vi.(i1) <- (s *. vi.(i1)) +. (c *. tr_im);
      vr.(i2) <- (s *. vr.(i2)) +. (c *. tr_re);
      vi.(i2) <- (s *. vi.(i2)) +. (c *. tr_im);
      vr.(i3) <- (s *. vr.(i3)) +. (c *. tr_re);
      vi.(i3) <- (s *. vi.(i3)) +. (c *. tr_im)
    end
  done

(* Each one-qubit channel maps the block X of qubit q to
   [[a00 X00 + a01 X11, off X01]; [off X10, a10 X00 + a11 X11]]. *)
let channel_1q t q ~off ~a00 ~a01 ~a10 ~a11 =
  let vr = State.unsafe_re t.vec and vi = State.unsafe_im t.vec in
  let n = t.n_qubits in
  let kq = 1 lsl q in
  let d1 = kq lor (kq lsl n) in
  for idx = 0 to (1 lsl (2 * n)) - 1 do
    if (idx lxor (idx lsr n)) land kq <> 0 then begin
      vr.(idx) <- off *. vr.(idx);
      vi.(idx) <- off *. vi.(idx)
    end
    else if idx land d1 = 0 then begin
      let i1 = idx lor d1 in
      let x0r = vr.(idx) and x0i = vi.(idx) and x1r = vr.(i1) and x1i = vi.(i1) in
      vr.(idx) <- (a00 *. x0r) +. (a01 *. x1r);
      vi.(idx) <- (a00 *. x0i) +. (a01 *. x1i);
      vr.(i1) <- (a10 *. x0r) +. (a11 *. x1r);
      vi.(i1) <- (a10 *. x0i) +. (a11 *. x1i)
    end
  done

(* depolarizing: X <- s X + c Tr(X) I, s = 1 - p d^2/(d^2-1), c = p d/(d^2-1) *)
let depolarize t p qubits =
  let d = float_of_int (1 lsl Array.length qubits) in
  let d2 = d *. d in
  let s = 1.0 -. (p *. d2 /. (d2 -. 1.0)) and c = p *. d /. (d2 -. 1.0) in
  if Array.length qubits = 1 then
    channel_1q t qubits.(0) ~off:s ~a00:(s +. c) ~a01:c ~a10:c ~a11:(s +. c)
  else depolarize_2q t qubits.(0) qubits.(1) s c

let apply_channel t channel qubits =
  let k = Array.length qubits in
  if 1 lsl k <> Channel.dim channel then
    invalid_arg
      (Printf.sprintf "Density.apply_channel: %s acts on %d levels, given %d qubits"
         (Channel.name channel) (Channel.dim channel) k);
  check_qubits "apply_channel" t qubits;
  match Channel.kind channel with
  | Channel.Depolarizing p -> depolarize t p qubits
  | Amplitude_damping gamma ->
    channel_1q t qubits.(0) ~off:(Float.sqrt (1.0 -. gamma)) ~a00:1.0 ~a01:gamma ~a10:0.0
      ~a11:(1.0 -. gamma)
  | Phase_damping lambda ->
    channel_1q t qubits.(0) ~off:(Float.sqrt (1.0 -. lambda)) ~a00:1.0 ~a01:0.0 ~a10:0.0 ~a11:1.0
  | General _ ->
    let doubled = Array.append qubits (Array.map (fun q -> q + t.n_qubits) qubits) in
    State.apply_matrix t.vec (Channel.superoperator channel) doubled

(* rho = |psi><psi|, element by element *)
let of_statevector sv =
  let n = State.n_qubits sv in
  let t = create n in
  let sr = State.unsafe_re sv and si = State.unsafe_im sv in
  let vr = State.unsafe_re t.vec and vi = State.unsafe_im t.vec in
  let dim = 1 lsl n in
  for r = 0 to dim - 1 do
    let ar = sr.(r) and ai = si.(r) in
    for c = 0 to dim - 1 do
      (* a * conj(b), b = psi_c, as Complex.mul computes it *)
      let br = sr.(c) and bi = -.si.(c) in
      let idx = r lor (c lsl n) in
      vr.(idx) <- (ar *. br) -. (ai *. bi);
      vi.(idx) <- (ar *. bi) +. (ai *. br)
    done
  done;
  t

(* <psi| rho |psi> = sum_rc conj(psi_r) rho_rc psi_c for a pure
   reference state, in Complex.mul's operation order. *)
let fidelity_with_pure t sv =
  if State.n_qubits sv <> t.n_qubits then
    invalid_arg "Density.fidelity_with_pure: qubit counts differ";
  let n = t.n_qubits in
  let sr = State.unsafe_re sv and si = State.unsafe_im sv in
  let vr = State.unsafe_re t.vec and vi = State.unsafe_im t.vec in
  let acc = ref 0.0 in
  for r = 0 to (1 lsl n) - 1 do
    let ar = sr.(r) and ai = -.si.(r) in
    for c = 0 to (1 lsl n) - 1 do
      let idx = r lor (c lsl n) in
      let pr = sr.(c) and pi = si.(c) in
      let m_re = (vr.(idx) *. pr) -. (vi.(idx) *. pi) in
      let m_im = (vr.(idx) *. pi) +. (vi.(idx) *. pr) in
      acc := !acc +. ((ar *. m_re) -. (ai *. m_im))
    done
  done;
  !acc

let run_circuit circuit =
  let t = create (Qcir.Circuit.n_qubits circuit) in
  Qcir.Circuit.iter (apply_instr t) circuit;
  t
