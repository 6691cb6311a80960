(** Backtracking Armijo line search with quadratic interpolation. *)

type result = {
  step : float;  (** accepted step length; 0 when no progress was made *)
  f_new : float;  (** objective at the accepted point *)
  evals : int;  (** number of objective evaluations used *)
}

val search :
  (float array -> float) ->
  float array ->
  float array ->
  f0:float ->
  slope:float ->
  result
(** [search f x d ~f0 ~slope] finds a step [t] along direction [d] from
    [x] satisfying the Armijo condition [f(x + t d) <= f0 + c1 t slope]
    with [c1 = 1e-4]: it backtracks from [t = 1], shrinking by at least
    half per trial, for at most 40 trials.  [slope] must be the
    directional derivative [grad f(x) . d] (negative for a descent
    direction). *)
