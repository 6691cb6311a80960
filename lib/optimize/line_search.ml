(* Backtracking line search with the Armijo sufficient-decrease condition.

   BFGS directions in this project are well-scaled (the objective is an
   infidelity in [0, 1]), so a simple backtracking search with quadratic
   interpolation converges in a handful of trials. *)

type result = { step : float; f_new : float; evals : int }

let c1 = 1e-4
let shrink = 0.5
let max_trials = 40

(* [search f x d ~f0 ~slope] finds t with
   f(x + t d) <= f0 + c1 * t * slope, where slope = grad . d < 0,
   starting from the full step t = 1. *)
let search f x d ~f0 ~slope =
  let n = Array.length x in
  assert (Array.length d = n);
  let trial = Array.make n 0.0 in
  let eval t =
    for i = 0 to n - 1 do
      trial.(i) <- x.(i) +. (t *. d.(i))
    done;
    f trial
  in
  let rec loop t k evals best =
    if k >= max_trials then best
    else begin
      let ft = eval t in
      let evals = evals + 1 in
      if ft <= f0 +. (c1 *. t *. slope) && Float.is_finite ft then
        { step = t; f_new = ft; evals }
      else begin
        (* quadratic interpolation for the next trial, clamped to the
           geometric shrink to guarantee progress *)
        let t_quad =
          let denom = 2.0 *. (ft -. f0 -. (slope *. t)) in
          if denom > 1e-300 then -.slope *. t *. t /. denom else t *. shrink
        in
        let t' = Float.max (t *. 0.1) (Float.min t_quad (t *. shrink)) in
        let best =
          if Float.is_finite ft && ft < best.f_new then { step = t; f_new = ft; evals }
          else { best with evals }
        in
        loop t' (k + 1) evals best
      end
    end
  in
  loop 1.0 0 0 { step = 0.0; f_new = f0; evals = 0 }
