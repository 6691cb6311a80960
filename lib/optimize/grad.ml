(* Finite-difference gradients.

   The default gradient of {!Bfgs.minimize} for objectives without a
   closed-form derivative (KAK fitting, the optimizer ablation), and the
   reference that NuOp's analytic template gradient is checked against. *)

let default_step = 1e-7

let central ?(h = default_step) f x =
  let n = Array.length x in
  let g = Array.make n 0.0 in
  let xp = Array.copy x in
  for i = 0 to n - 1 do
    let xi = x.(i) in
    xp.(i) <- xi +. h;
    let fp = f xp in
    xp.(i) <- xi -. h;
    let fm = f xp in
    xp.(i) <- xi;
    g.(i) <- (fp -. fm) /. (2.0 *. h)
  done;
  g

let forward ?(h = default_step) f x =
  let n = Array.length x in
  let f0 = f x in
  let g = Array.make n 0.0 in
  let xp = Array.copy x in
  for i = 0 to n - 1 do
    let xi = x.(i) in
    xp.(i) <- xi +. h;
    g.(i) <- (f xp -. f0) /. h;
    xp.(i) <- xi
  done;
  g

let norm g =
  let acc = ref 0.0 in
  Array.iter (fun v -> acc := !acc +. (v *. v)) g;
  Float.sqrt !acc

let dot a b =
  assert (Array.length a = Array.length b);
  let acc = ref 0.0 in
  Array.iteri (fun i av -> acc := !acc +. (av *. b.(i))) a;
  !acc
