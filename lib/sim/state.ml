(* State-vector simulator core.

   Amplitudes live in two unboxed float arrays (re / im); qubit [q]
   corresponds to bit [q] of the amplitude index (qubit 0 is the least
   significant bit).

   One- and two-qubit gates run unrolled stride kernels with the matrix
   in local floats; wider gates use the general gather/scatter kernel.
   The same kernels power the vectorized density simulator (where
   "qubits" include bra indices and the matrix need not be unitary). *)

open Linalg

type t = { n_qubits : int; re : float array; im : float array }

let max_qubits = 26 (* 2^26 amplitudes * 16 B = 1 GiB; guard rail *)

let create n_qubits =
  if n_qubits < 1 || n_qubits > max_qubits then
    invalid_arg (Printf.sprintf "State.create: n_qubits %d out of range" n_qubits);
  let dim = 1 lsl n_qubits in
  let s = { n_qubits; re = Array.make dim 0.0; im = Array.make dim 0.0 } in
  s.re.(0) <- 1.0;
  s

let n_qubits t = t.n_qubits
let dim t = 1 lsl t.n_qubits

let copy t = { t with re = Array.copy t.re; im = Array.copy t.im }

let amplitude t k = { Complex.re = t.re.(k); im = t.im.(k) }

let set_amplitude t k (z : Complex.t) =
  t.re.(k) <- z.re;
  t.im.(k) <- z.im

let of_basis n_qubits k =
  let s = create n_qubits in
  s.re.(0) <- 0.0;
  s.re.(k) <- 1.0;
  s

let norm2 t =
  let acc = ref 0.0 in
  for k = 0 to dim t - 1 do
    acc := !acc +. (t.re.(k) *. t.re.(k)) +. (t.im.(k) *. t.im.(k))
  done;
  !acc

let normalize t =
  let n = Float.sqrt (norm2 t) in
  if n > 1e-300 then begin
    let inv = 1.0 /. n in
    for k = 0 to dim t - 1 do
      t.re.(k) <- t.re.(k) *. inv;
      t.im.(k) <- t.im.(k) *. inv
    done
  end

let probability t k = (t.re.(k) *. t.re.(k)) +. (t.im.(k) *. t.im.(k))

let probabilities t = Array.init (dim t) (probability t)

let inner a b =
  assert (a.n_qubits = b.n_qubits);
  let re = ref 0.0 and im = ref 0.0 in
  for k = 0 to dim a - 1 do
    re := !re +. ((a.re.(k) *. b.re.(k)) +. (a.im.(k) *. b.im.(k)));
    im := !im +. ((a.re.(k) *. b.im.(k)) -. (a.im.(k) *. b.re.(k)))
  done;
  { Complex.re = !re; im = !im }

let fidelity_pure a b = Complex.norm2 (inner a b)

(* Gate application.  [qubits] orders the matrix index with qubits.(0)
   as the MOST significant bit: a 2-qubit gate on [a; b] sees basis
   |x_a x_b> with index 2*x_a + x_b, matching the 4x4 conventions of the
   gates library.

   Every kernel below takes the matrix's raw interleaved data, a sign
   [si] for its imaginary parts (-1.0 applies the complex conjugate, as
   the density simulator's bra half needs) and a qubit [offset] added to
   every listed qubit.  Each output amplitude is accumulated from 0.0
   over the matrix columns in order, so the unrolled k=1 and k=2 kernels
   are bit-identical to the generic one. *)

(* [i] with a zero bit inserted at position [p] *)
let[@inline] insert_zero i p = ((i lsr p) lsl (p + 1)) lor (i land ((1 lsl p) - 1))

let apply_1q t md si q =
  let re = t.re and im = t.im in
  let m00r = md.(0) and m00i = si *. md.(1) in
  let m01r = md.(2) and m01i = si *. md.(3) in
  let m10r = md.(4) and m10i = si *. md.(5) in
  let m11r = md.(6) and m11i = si *. md.(7) in
  let bit = 1 lsl q in
  for i = 0 to (1 lsl (t.n_qubits - 1)) - 1 do
    let i0 = insert_zero i q in
    let i1 = i0 lor bit in
    let x0r = Array.unsafe_get re i0 and x0i = Array.unsafe_get im i0 in
    let x1r = Array.unsafe_get re i1 and x1i = Array.unsafe_get im i1 in
    Array.unsafe_set re i0
      (0.0 +. ((m00r *. x0r) -. (m00i *. x0i)) +. ((m01r *. x1r) -. (m01i *. x1i)));
    Array.unsafe_set im i0
      (0.0 +. ((m00r *. x0i) +. (m00i *. x0r)) +. ((m01r *. x1i) +. (m01i *. x1r)));
    Array.unsafe_set re i1
      (0.0 +. ((m10r *. x0r) -. (m10i *. x0i)) +. ((m11r *. x1r) -. (m11i *. x1i)));
    Array.unsafe_set im i1
      (0.0 +. ((m10r *. x0i) +. (m10i *. x0r)) +. ((m11r *. x1i) +. (m11i *. x1r)))
  done

(* [qa] is the matrix's most significant qubit *)
let apply_2q t md si qa qb =
  let re = t.re and im = t.im in
  let m00r = md.(0) and m00i = si *. md.(1) in
  let m01r = md.(2) and m01i = si *. md.(3) in
  let m02r = md.(4) and m02i = si *. md.(5) in
  let m03r = md.(6) and m03i = si *. md.(7) in
  let m10r = md.(8) and m10i = si *. md.(9) in
  let m11r = md.(10) and m11i = si *. md.(11) in
  let m12r = md.(12) and m12i = si *. md.(13) in
  let m13r = md.(14) and m13i = si *. md.(15) in
  let m20r = md.(16) and m20i = si *. md.(17) in
  let m21r = md.(18) and m21i = si *. md.(19) in
  let m22r = md.(20) and m22i = si *. md.(21) in
  let m23r = md.(22) and m23i = si *. md.(23) in
  let m30r = md.(24) and m30i = si *. md.(25) in
  let m31r = md.(26) and m31i = si *. md.(27) in
  let m32r = md.(28) and m32i = si *. md.(29) in
  let m33r = md.(30) and m33i = si *. md.(31) in
  let lo = min qa qb and hi = max qa qb in
  let ba = 1 lsl qa and bb = 1 lsl qb in
  for i = 0 to (1 lsl (t.n_qubits - 2)) - 1 do
    let i0 = insert_zero (insert_zero i lo) hi in
    let i1 = i0 lor bb and i2 = i0 lor ba and i3 = i0 lor ba lor bb in
    let x0r = Array.unsafe_get re i0 and x0i = Array.unsafe_get im i0 in
    let x1r = Array.unsafe_get re i1 and x1i = Array.unsafe_get im i1 in
    let x2r = Array.unsafe_get re i2 and x2i = Array.unsafe_get im i2 in
    let x3r = Array.unsafe_get re i3 and x3i = Array.unsafe_get im i3 in
    Array.unsafe_set re i0
      (0.0
      +. ((m00r *. x0r) -. (m00i *. x0i))
      +. ((m01r *. x1r) -. (m01i *. x1i))
      +. ((m02r *. x2r) -. (m02i *. x2i))
      +. ((m03r *. x3r) -. (m03i *. x3i)));
    Array.unsafe_set im i0
      (0.0
      +. ((m00r *. x0i) +. (m00i *. x0r))
      +. ((m01r *. x1i) +. (m01i *. x1r))
      +. ((m02r *. x2i) +. (m02i *. x2r))
      +. ((m03r *. x3i) +. (m03i *. x3r)));
    Array.unsafe_set re i1
      (0.0
      +. ((m10r *. x0r) -. (m10i *. x0i))
      +. ((m11r *. x1r) -. (m11i *. x1i))
      +. ((m12r *. x2r) -. (m12i *. x2i))
      +. ((m13r *. x3r) -. (m13i *. x3i)));
    Array.unsafe_set im i1
      (0.0
      +. ((m10r *. x0i) +. (m10i *. x0r))
      +. ((m11r *. x1i) +. (m11i *. x1r))
      +. ((m12r *. x2i) +. (m12i *. x2r))
      +. ((m13r *. x3i) +. (m13i *. x3r)));
    Array.unsafe_set re i2
      (0.0
      +. ((m20r *. x0r) -. (m20i *. x0i))
      +. ((m21r *. x1r) -. (m21i *. x1i))
      +. ((m22r *. x2r) -. (m22i *. x2i))
      +. ((m23r *. x3r) -. (m23i *. x3i)));
    Array.unsafe_set im i2
      (0.0
      +. ((m20r *. x0i) +. (m20i *. x0r))
      +. ((m21r *. x1i) +. (m21i *. x1r))
      +. ((m22r *. x2i) +. (m22i *. x2r))
      +. ((m23r *. x3i) +. (m23i *. x3r)));
    Array.unsafe_set re i3
      (0.0
      +. ((m30r *. x0r) -. (m30i *. x0i))
      +. ((m31r *. x1r) -. (m31i *. x1i))
      +. ((m32r *. x2r) -. (m32i *. x2i))
      +. ((m33r *. x3r) -. (m33i *. x3i)));
    Array.unsafe_set im i3
      (0.0
      +. ((m30r *. x0i) +. (m30i *. x0r))
      +. ((m31r *. x1i) +. (m31i *. x1r))
      +. ((m32r *. x2i) +. (m32i *. x2r))
      +. ((m33r *. x3i) +. (m33i *. x3r)))
  done

(* General k-qubit kernel: for each setting of the untouched bits,
   gather the 2^k addressed amplitudes, multiply, scatter back. *)
let apply_generic t md si ~offset qubits =
  let k = Array.length qubits in
  let dim_gate = 1 lsl k in
  (* bit position (in the state index) of matrix bit j: matrix bit j is
     the j-th from the LEAST significant, i.e. qubits.(k-1-j) *)
  let bitpos = Array.init k (fun j -> qubits.(k - 1 - j) + offset) in
  let mask_sorted = Array.copy bitpos in
  Array.sort compare mask_sorted;
  let gather_re = Array.make dim_gate 0.0 in
  let gather_im = Array.make dim_gate 0.0 in
  (* offset of each gate-basis setting within a block *)
  let offsets =
    Array.init dim_gate (fun g ->
        let off = ref 0 in
        for j = 0 to k - 1 do
          if (g lsr j) land 1 = 1 then off := !off lor (1 lsl bitpos.(j))
        done;
        !off)
  in
  for rest = 0 to (1 lsl (t.n_qubits - k)) - 1 do
    (* expand [rest] into a full index with zeros at the gate bits *)
    let base = ref rest in
    for j = 0 to k - 1 do
      base := insert_zero !base mask_sorted.(j)
    done;
    let base = !base in
    for g = 0 to dim_gate - 1 do
      let idx = base lor offsets.(g) in
      gather_re.(g) <- t.re.(idx);
      gather_im.(g) <- t.im.(idx)
    done;
    for r = 0 to dim_gate - 1 do
      let acc_re = ref 0.0 and acc_im = ref 0.0 in
      for c = 0 to dim_gate - 1 do
        let km = 2 * ((r * dim_gate) + c) in
        let mr = md.(km) and mi = si *. md.(km + 1) in
        acc_re := !acc_re +. ((mr *. gather_re.(c)) -. (mi *. gather_im.(c)));
        acc_im := !acc_im +. ((mr *. gather_im.(c)) +. (mi *. gather_re.(c)))
      done;
      let idx = base lor offsets.(r) in
      t.re.(idx) <- !acc_re;
      t.im.(idx) <- !acc_im
    done
  done

(* Argument checks shared by every entry point, made once before any
   kernel runs. *)
let check_args fn t matrix ~offset qubits =
  let k = Array.length qubits in
  let d = 1 lsl k in
  if Mat.rows matrix <> d || Mat.cols matrix <> d then
    invalid_arg
      (Printf.sprintf "State.%s: %dx%d matrix for %d qubits (expected %dx%d)" fn
         (Mat.rows matrix) (Mat.cols matrix) k d d);
  for j = 0 to k - 1 do
    let q = qubits.(j) in
    if q < 0 || q + offset >= t.n_qubits then
      invalid_arg
        (Printf.sprintf "State.%s: qubit %d out of range for %d qubits" fn q
           (t.n_qubits - offset));
    for j' = 0 to j - 1 do
      if qubits.(j') = q then invalid_arg (Printf.sprintf "State.%s: qubit %d repeated" fn q)
    done
  done

let dispatch t matrix si ~offset qubits =
  let md = Mat.unsafe_data matrix in
  match Array.length qubits with
  | 1 -> apply_1q t md si (qubits.(0) + offset)
  | 2 -> apply_2q t md si (qubits.(0) + offset) (qubits.(1) + offset)
  | _ -> apply_generic t md si ~offset qubits

let apply_matrix t matrix qubits =
  check_args "apply_matrix" t matrix ~offset:0 qubits;
  dispatch t matrix 1.0 ~offset:0 qubits

let apply_matrix_conj t matrix ~offset qubits =
  check_args "apply_matrix_conj" t matrix ~offset qubits;
  dispatch t matrix (-1.0) ~offset qubits

let apply_matrix_generic t matrix qubits =
  check_args "apply_matrix_generic" t matrix ~offset:0 qubits;
  apply_generic t (Mat.unsafe_data matrix) 1.0 ~offset:0 qubits

(* Pauli [index] (1 = X, 2 = Y, 3 = Z) on qubit [q], as swaps and sign
   flips: the values equal the 2x2 product's up to the sign of zeros. *)
let apply_pauli t index q =
  if q < 0 || q >= t.n_qubits then
    invalid_arg (Printf.sprintf "State.apply_pauli: qubit %d out of range" q);
  let re = t.re and im = t.im in
  let bit = 1 lsl q in
  match index with
  | 1 ->
    for i = 0 to (1 lsl (t.n_qubits - 1)) - 1 do
      let i0 = insert_zero i q in
      let i1 = i0 lor bit in
      let x0r = re.(i0) and x0i = im.(i0) in
      re.(i0) <- re.(i1);
      im.(i0) <- im.(i1);
      re.(i1) <- x0r;
      im.(i1) <- x0i
    done
  | 2 ->
    (* Y|0> = i|1>, Y|1> = -i|0> *)
    for i = 0 to (1 lsl (t.n_qubits - 1)) - 1 do
      let i0 = insert_zero i q in
      let i1 = i0 lor bit in
      let x0r = re.(i0) and x0i = im.(i0) in
      re.(i0) <- im.(i1);
      im.(i0) <- -.re.(i1);
      re.(i1) <- -.x0i;
      im.(i1) <- x0r
    done
  | 3 ->
    for i = 0 to (1 lsl (t.n_qubits - 1)) - 1 do
      let i1 = insert_zero i q lor bit in
      re.(i1) <- -.re.(i1);
      im.(i1) <- -.im.(i1)
    done
  | _ -> invalid_arg (Printf.sprintf "State.apply_pauli: index %d" index)

let unsafe_re t = t.re
let unsafe_im t = t.im

let apply_instr t instr =
  apply_matrix t (Gates.Gate.matrix (Qcir.Instr.gate instr)) (Qcir.Instr.qubits instr)

let run_circuit circuit =
  let s = create (Qcir.Circuit.n_qubits circuit) in
  Qcir.Circuit.iter (apply_instr s) circuit;
  s

let run_circuit_on s circuit =
  assert (s.n_qubits = Qcir.Circuit.n_qubits circuit);
  Qcir.Circuit.iter (apply_instr s) circuit
