(* NuOp template circuits (Fig 4 of the paper).

   A template with [i] layers is
       L_i . G_i . L_{i-1} . G_{i-1} ... G_1 . L_0
   where each L_k = U3(a,b,l) (x) U3(a',b',l') is a pair of arbitrary
   single-qubit rotations (6 angles) and each G_k is the target hardware
   two-qubit gate.  For a fixed gate type the G_k are constant; for a
   continuous family each G_k carries its own free angles, appended after
   the single-qubit angles in the parameter vector.

   Parameter layout: [ 6*(i+1) single-qubit angles | i * pc gate angles ]
   with pc = Gate_type.param_count.

   Evaluation allocates nothing and the analytic gradient only its boxed
   result: all scratch matrices live in the workspace and are reused
   across objective evaluations (BFGS calls them thousands of times per
   decomposition).

   Gradient.  Number the factors F_0 = L_0, F_1 = G_1, F_2 = L_1, ...,
   F_2i = L_i, and let w = Tr(T^dag U) for the target T.  With prefixes
   R_m = F_{m-1} ... F_0 and suffixes Q_m = T^dag F_2i ... F_{m+1},
   w = Tr(Q_m F_m R_m), so every entry of F_m has the environment
   E_m = R_m Q_m: dw = sum_ij (E_m)_ji dF_ij.  The infidelity
   f = 1 - |w|/4 then has df = -Re(conj(w) dw) / (4|w|).  One forward
   sweep (prefixes), one backward sweep (suffixes) and one product per
   differentiated factor give every partial derivative for about three
   template evaluations.  A local layer contracts E_m down to one 2x2
   partial environment per qubit; a family gate contracts it against
   its sparse gate derivative. *)

open Linalg

type t = {
  gate_type : Gates.Gate_type.t;
  layers : int;
  gate_params : int;  (* free angles per two-qubit layer *)
  fixed_gate : Mat.t option;  (* the constant gate matrix, if fixed *)
  gate : Mat.t;  (* 4x4 scratch: a family gate's derivative *)
  trig : float array;
      (* per local layer k, per qubit q, at 16k + 8q:
         cos(a/2), sin(a/2), cos l, sin l, cos b, sin b, cos(b+l), sin(b+l) *)
  oneq : float array;  (* the same slots: the 2x2 U3 matrices, interleaved *)
  factors : Mat.t array;  (* F_m for m >= 1 (a fixed gate is shared, never written) *)
  prefix : Mat.t array;  (* R_m, m = 1 .. 2i+1; R_{2i+1} is the template *)
  suffix : Mat.t array;  (* Q_m, m = 0 .. 2i *)
  env : Mat.t;  (* E_m *)
  part : float array;  (* 2x2 partial environments of the two qubits *)
  du : float array;  (* derivative of one U3 matrix *)
  coef : float array;  (* Re w, -Im w, -1/(4|w|) *)
}

let create gate_type ~layers =
  if layers < 0 then invalid_arg "Template.create: negative layer count";
  let gate_params = Gates.Gate_type.param_count gate_type in
  let fixed_gate =
    match gate_type with
    | Gates.Gate_type.Fixed { unitary; _ } -> Some unitary
    | Gates.Gate_type.Fsim_family | Gates.Gate_type.Xy_family
    | Gates.Gate_type.Cphase_family ->
      None
  in
  let mats n = Array.init n (fun _ -> Mat.create 4 4) in
  let factors = mats ((2 * layers) + 1) in
  (match fixed_gate with
  | Some g ->
    for k = 1 to layers do
      factors.((2 * k) - 1) <- g
    done
  | None -> ());
  {
    gate_type;
    layers;
    gate_params;
    fixed_gate;
    gate = Mat.create 4 4;
    trig = Array.make (16 * (layers + 1)) 0.0;
    oneq = Array.make (16 * (layers + 1)) 0.0;
    factors;
    prefix = mats ((2 * layers) + 2);
    suffix = mats ((2 * layers) + 1);
    env = Mat.create 4 4;
    part = Array.make 16 0.0;
    du = Array.make 8 0.0;
    coef = Array.make 3 0.0;
  }

let gate_type t = t.gate_type
let layers t = t.layers

let param_count t = (6 * (t.layers + 1)) + (t.layers * t.gate_params)

(* Fill the trig and U3 slots of local layer [k] from its six angles.
   U3 convention matches Oneq.u3. *)
let write_local t k params =
  for q = 0 to 1 do
    let base = (6 * k) + (3 * q) and o = (16 * k) + (8 * q) in
    let a = params.(base) and b = params.(base + 1) and l = params.(base + 2) in
    let c = Float.cos (a /. 2.0) and s = Float.sin (a /. 2.0) in
    let cl = Float.cos l and sl = Float.sin l in
    let cb = Float.cos b and sb = Float.sin b in
    let cbl = Float.cos (b +. l) and sbl = Float.sin (b +. l) in
    let tr = t.trig and u = t.oneq in
    tr.(o) <- c;
    tr.(o + 1) <- s;
    tr.(o + 2) <- cl;
    tr.(o + 3) <- sl;
    tr.(o + 4) <- cb;
    tr.(o + 5) <- sb;
    tr.(o + 6) <- cbl;
    tr.(o + 7) <- sbl;
    u.(o) <- c;
    u.(o + 1) <- 0.0;
    u.(o + 2) <- -.s *. cl;
    u.(o + 3) <- -.s *. sl;
    u.(o + 4) <- s *. cb;
    u.(o + 5) <- s *. sb;
    u.(o + 6) <- c *. cbl;
    u.(o + 7) <- c *. sbl
  done

(* dst <- U (x) V for the U3 pair of local layer [k]:
   dst[(2*iu+iv)*4 + (2*ju+jv)] = u[iu,ju] * v[iv,jv]. *)
let kron_local t dst k =
  let d = Mat.unsafe_data dst and u = t.oneq in
  let ou = 16 * k in
  let ov = ou + 8 in
  for iu = 0 to 1 do
    for ju = 0 to 1 do
      let ku = ou + (2 * ((2 * iu) + ju)) in
      let ur = u.(ku) and ui = u.(ku + 1) in
      for iv = 0 to 1 do
        for jv = 0 to 1 do
          let kv = ov + (2 * ((2 * iv) + jv)) in
          let vr = u.(kv) and vi = u.(kv + 1) in
          let kd = 2 * ((((2 * iu) + iv) * 4) + (2 * ju) + jv) in
          d.(kd) <- (ur *. vr) -. (ui *. vi);
          d.(kd + 1) <- (ur *. vi) +. (ui *. vr)
        done
      done
    done
  done

(* Write the family gate instance for layer [k] into [dst]. *)
let write_gate t dst params k =
  match t.gate_type with
  | Gates.Gate_type.Fixed _ -> assert false
  | Gates.Gate_type.Cphase_family ->
    let phi = params.((6 * (t.layers + 1)) + k) in
    let d = Mat.unsafe_data dst in
    Array.fill d 0 32 0.0;
    d.(0) <- 1.0;
    d.(2 * 5) <- 1.0;
    d.(2 * 10) <- 1.0;
    d.(2 * 15) <- Float.cos phi;
    d.((2 * 15) + 1) <- -.Float.sin phi
  | Gates.Gate_type.Xy_family ->
    let theta = params.((6 * (t.layers + 1)) + k) in
    let d = Mat.unsafe_data dst in
    Array.fill d 0 32 0.0;
    let ct = Float.cos (theta /. 2.0) and st = Float.sin (theta /. 2.0) in
    d.(0) <- 1.0;
    (* (1,1) *)
    d.(2 * 5) <- ct;
    (* (1,2) = i sin *)
    d.((2 * 6) + 1) <- st;
    (* (2,1) *)
    d.((2 * 9) + 1) <- st;
    d.(2 * 10) <- ct;
    d.(2 * 15) <- 1.0
  | Gates.Gate_type.Fsim_family ->
    let base = (6 * (t.layers + 1)) + (2 * k) in
    let theta = params.(base) and phi = params.(base + 1) in
    let d = Mat.unsafe_data dst in
    Array.fill d 0 32 0.0;
    let ct = Float.cos theta and st = Float.sin theta in
    d.(0) <- 1.0;
    d.(2 * 5) <- ct;
    d.((2 * 6) + 1) <- -.st;
    d.((2 * 9) + 1) <- -.st;
    d.(2 * 10) <- ct;
    d.(2 * 15) <- Float.cos phi;
    d.((2 * 15) + 1) <- -.Float.sin phi

(* Evaluate the template unitary by the forward sweep R_1 = L_0,
   R_{m+1} = F_m R_m.  The returned matrix is workspace storage: valid
   only until the next [evaluate] or [infidelity_gradient] call. *)
let evaluate t params =
  assert (Array.length params = param_count t);
  write_local t 0 params;
  kron_local t t.prefix.(1) 0;
  for k = 1 to t.layers do
    let g = t.factors.((2 * k) - 1) in
    if Option.is_none t.fixed_gate then write_gate t g params (k - 1);
    Mat.mul_into ~dst:t.prefix.(2 * k) g t.prefix.((2 * k) - 1);
    write_local t k params;
    kron_local t t.factors.(2 * k) k;
    Mat.mul_into ~dst:t.prefix.((2 * k) + 1) t.factors.(2 * k) t.prefix.(2 * k)
  done;
  t.prefix.((2 * t.layers) + 1)

(* Decomposition fidelity F_d = |Tr(U_d^dag U_t)| / 4 (Eq 1; the modulus
   quotients out the global phase). *)
let fidelity t params ~target =
  let u_d = evaluate t params in
  Complex.norm (Mat.hs_inner u_d target) /. 4.0

let infidelity t params ~target = 1.0 -. fidelity t params ~target

(* ---------- analytic gradient ---------- *)

(* part[0..7] <- the 2x2 environment of the first qubit's U3,
   P_{iu,ju} = sum_{iv,jv} V_{iv,jv} E_{(2ju+jv),(2iu+iv)}, and
   part[8..15] <- the second qubit's, P'_{iv,jv} = sum U_{iu,ju} E_{..},
   so that dw = sum_ij dU_ij P_ij (resp. dV_ij P'_ij). *)
let partial_envs t e k =
  let ed = Mat.unsafe_data e and u = t.oneq and p = t.part in
  let ou = 16 * k in
  let ov = ou + 8 in
  for x = 0 to 1 do
    for y = 0 to 1 do
      (* first qubit: (iu, ju) = (x, y); second qubit: (iv, jv) = (x, y) *)
      let pr = ref 0.0 and pi = ref 0.0 and qr = ref 0.0 and qi = ref 0.0 in
      for i = 0 to 1 do
        for j = 0 to 1 do
          let k = 2 * ((2 * i) + j) in
          let vr = u.(ov + k) and vi = u.(ov + k + 1) in
          let ke = 2 * (((((2 * y) + j) * 4) + (2 * x)) + i) in
          pr := !pr +. ((vr *. ed.(ke)) -. (vi *. ed.(ke + 1)));
          pi := !pi +. ((vr *. ed.(ke + 1)) +. (vi *. ed.(ke)));
          let ur = u.(ou + k) and ui = u.(ou + k + 1) in
          let ke = 2 * (((((2 * j) + y) * 4) + (2 * i)) + x) in
          qr := !qr +. ((ur *. ed.(ke)) -. (ui *. ed.(ke + 1)));
          qi := !qi +. ((ur *. ed.(ke + 1)) +. (ui *. ed.(ke)))
        done
      done;
      let kp = 2 * ((2 * x) + y) in
      p.(kp) <- !pr;
      p.(kp + 1) <- !pi;
      p.(8 + kp) <- !qr;
      p.(8 + kp + 1) <- !qi
    done
  done

(* du <- dU3/d(angle) for the qubit whose trig slots start at [o];
   [angle] is 0 for a (the theta of U3), 1 for b (phi), 2 for l (lambda). *)
let u3_derivative t o angle =
  let tr = t.trig and du = t.du in
  let c = tr.(o) and s = tr.(o + 1) in
  let cl = tr.(o + 2) and sl = tr.(o + 3) in
  let cb = tr.(o + 4) and sb = tr.(o + 5) in
  let cbl = tr.(o + 6) and sbl = tr.(o + 7) in
  match angle with
  | 0 ->
    du.(0) <- -0.5 *. s;
    du.(1) <- 0.0;
    du.(2) <- -0.5 *. c *. cl;
    du.(3) <- -0.5 *. c *. sl;
    du.(4) <- 0.5 *. c *. cb;
    du.(5) <- 0.5 *. c *. sb;
    du.(6) <- -0.5 *. s *. cbl;
    du.(7) <- -0.5 *. s *. sbl
  | 1 ->
    du.(0) <- 0.0;
    du.(1) <- 0.0;
    du.(2) <- 0.0;
    du.(3) <- 0.0;
    du.(4) <- -.s *. sb;
    du.(5) <- s *. cb;
    du.(6) <- -.c *. sbl;
    du.(7) <- c *. cbl
  | _ ->
    du.(0) <- 0.0;
    du.(1) <- 0.0;
    du.(2) <- s *. sl;
    du.(3) <- -.s *. cl;
    du.(4) <- 0.0;
    du.(5) <- 0.0;
    du.(6) <- -.c *. sbl;
    du.(7) <- c *. cbl

(* grad.(idx) <- df = -Re(conj(w) dw) / (4|w|) with dw = sum du (.) part
   (the 2x2 environment at [po]). *)
let store_local t grad idx po =
  let du = t.du and p = t.part in
  let zr = ref 0.0 and zi = ref 0.0 in
  for k = 0 to 3 do
    let dr = du.(2 * k) and di = du.((2 * k) + 1) in
    let er = p.(po + (2 * k)) and ei = p.(po + (2 * k) + 1) in
    zr := !zr +. ((dr *. er) -. (di *. ei));
    zi := !zi +. ((dr *. ei) +. (di *. er))
  done;
  grad.(idx) <- t.coef.(2) *. ((t.coef.(0) *. !zr) -. (t.coef.(1) *. !zi))

(* The same for a gate angle: dw = sum_ij E_ji dF_ij with dF in [t.gate]
   and E in [t.env]. *)
let store_gate t grad idx =
  let e = Mat.unsafe_data t.env and df = Mat.unsafe_data t.gate in
  let zr = ref 0.0 and zi = ref 0.0 in
  for i = 0 to 3 do
    for j = 0 to 3 do
      let kf = 2 * ((i * 4) + j) and ke = 2 * ((j * 4) + i) in
      let dr = df.(kf) and di = df.(kf + 1) in
      if dr <> 0.0 || di <> 0.0 then begin
        zr := !zr +. ((dr *. e.(ke)) -. (di *. e.(ke + 1)));
        zi := !zi +. ((dr *. e.(ke + 1)) +. (di *. e.(ke)))
      end
    done
  done;
  grad.(idx) <- t.coef.(2) *. ((t.coef.(0) *. !zr) -. (t.coef.(1) *. !zi))

(* [t.gate] <- d(family gate of layer k)/d(its [which]-th angle). *)
let write_gate_derivative t params k which =
  let d = Mat.unsafe_data t.gate in
  Array.fill d 0 32 0.0;
  let base = (6 * (t.layers + 1)) + (t.gate_params * k) in
  match t.gate_type with
  | Gates.Gate_type.Fixed _ -> assert false
  | Gates.Gate_type.Cphase_family ->
    let phi = params.(base) in
    d.(2 * 15) <- -.Float.sin phi;
    d.((2 * 15) + 1) <- -.Float.cos phi
  | Gates.Gate_type.Xy_family ->
    let theta = params.(base) in
    let hc = 0.5 *. Float.cos (theta /. 2.0) and hs = -0.5 *. Float.sin (theta /. 2.0) in
    d.(2 * 5) <- hs;
    d.((2 * 6) + 1) <- hc;
    d.((2 * 9) + 1) <- hc;
    d.(2 * 10) <- hs
  | Gates.Gate_type.Fsim_family ->
    if which = 0 then begin
      let theta = params.(base) in
      let ct = Float.cos theta and st = Float.sin theta in
      d.(2 * 5) <- -.st;
      d.((2 * 6) + 1) <- -.ct;
      d.((2 * 9) + 1) <- -.ct;
      d.(2 * 10) <- -.st
    end
    else begin
      let phi = params.(base + 1) in
      d.(2 * 15) <- -.Float.sin phi;
      d.((2 * 15) + 1) <- -.Float.cos phi
    end

let infidelity_gradient t params ~target ~grad =
  let n = param_count t in
  assert (Array.length params = n && Array.length grad = n);
  assert (Mat.rows target = 4 && Mat.cols target = 4);
  let nf = 2 * t.layers in
  let u = Mat.unsafe_data (evaluate t params) and tg = Mat.unsafe_data target in
  (* the value, exactly as [infidelity] computes it: conj(w) = Tr(U^dag T)
     summed in [Mat.hs_inner]'s order *)
  let hr = ref 0.0 and hi = ref 0.0 in
  for k = 0 to 15 do
    let ar = u.(2 * k) and ai = u.((2 * k) + 1) in
    let br = tg.(2 * k) and bi = tg.((2 * k) + 1) in
    hr := !hr +. ((ar *. br) +. (ai *. bi));
    hi := !hi +. ((ar *. bi) -. (ai *. br))
  done;
  let mag = Float.hypot !hr !hi in
  t.coef.(0) <- !hr;
  t.coef.(1) <- !hi;
  t.coef.(2) <- (if mag > 0.0 then -0.25 /. mag else 0.0);
  (* backward sweep: Q_2i = T^dag, Q_{m-1} = Q_m F_m *)
  let q = Mat.unsafe_data t.suffix.(nf) in
  for i = 0 to 3 do
    for j = 0 to 3 do
      let kq = 2 * ((i * 4) + j) and kt = 2 * ((j * 4) + i) in
      q.(kq) <- tg.(kt);
      q.(kq + 1) <- -.tg.(kt + 1)
    done
  done;
  for m = nf downto 1 do
    Mat.mul_into ~dst:t.suffix.(m - 1) t.suffix.(m) t.factors.(m)
  done;
  (* environments: E_0 = Q_0, E_m = R_m Q_m *)
  for m = 0 to nf do
    let k = m / 2 in
    if m land 1 = 0 then begin
      let e =
        if m = 0 then t.suffix.(0)
        else begin
          Mat.mul_into ~dst:t.env t.prefix.(m) t.suffix.(m);
          t.env
        end
      in
      partial_envs t e k;
      for qb = 0 to 1 do
        for angle = 0 to 2 do
          u3_derivative t ((16 * k) + (8 * qb)) angle;
          store_local t grad ((6 * k) + (3 * qb) + angle) (8 * qb)
        done
      done
    end
    else if Option.is_none t.fixed_gate then begin
      Mat.mul_into ~dst:t.env t.prefix.(m) t.suffix.(m);
      for which = 0 to t.gate_params - 1 do
        write_gate_derivative t params k which;
        store_gate t grad ((6 * (t.layers + 1)) + (t.gate_params * k) + which)
      done
    end
  done;
  1.0 -. (mag /. 4.0)

(* Extract the gate angles used by layer [k] (family types only). *)
let gate_angles t params k =
  assert (k >= 1 && k <= t.layers);
  match t.gate_type with
  | Gates.Gate_type.Fixed _ -> [||]
  | Gates.Gate_type.Xy_family | Gates.Gate_type.Cphase_family ->
    [| params.((6 * (t.layers + 1)) + (k - 1)) |]
  | Gates.Gate_type.Fsim_family ->
    let base = (6 * (t.layers + 1)) + (2 * (k - 1)) in
    [| params.(base); params.(base + 1) |]
