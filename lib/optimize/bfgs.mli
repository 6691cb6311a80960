(** BFGS quasi-Newton minimizer (dense inverse-Hessian form).

    The optimizer behind NuOp template fitting.  The paper used scipy's
    BFGS with finite-difference gradients, which stay the default; NuOp
    passes the template's analytic gradient instead. *)

type options = {
  max_iter : int;
  grad_tol : float;  (** stop when ||grad||_2 falls below this *)
  f_tol : float;  (** stop as soon as the objective drops below this *)
  step_tol : float;
      (** stop when steps stagnate: relative objective decrease of an
          accepted step below this (the improving step itself is kept) *)
}

val default_options : options

type outcome = Converged | Target_reached | Max_iterations | Stagnated

type result = {
  x : float array;
  f : float;
  iterations : int;
  evaluations : int;
      (** objective evaluations, gradients included: a central-difference
          gradient costs [2n], a [?gradient] call counts as one *)
  outcome : outcome;
}

val minimize :
  ?options:options ->
  ?gradient:(float array -> float array -> float) ->
  (float array -> float) ->
  float array ->
  result
(** [minimize f x0] minimizes [f] starting from [x0]. [x0] is not
    mutated.  [gradient x g], when given, must write the gradient of [f]
    at [x] into [g] (a buffer owned by the optimizer) and return [f x];
    the line search still calls [f].  Without it gradients are
    {!Grad.central} differences with {!Grad.default_step}. *)
