(** NuOp template circuits (Fig 4 of the paper).

    A template with [i] layers alternates arbitrary single-qubit rotation
    pairs (6 angles each) with the target hardware two-qubit gate; for a
    continuous family each gate layer carries its own free angles.
    Evaluation and the analytic gradient reuse workspace scratch
    matrices instead of allocating. *)

open Linalg

type t

val create : Gates.Gate_type.t -> layers:int -> t
val gate_type : t -> Gates.Gate_type.t
val layers : t -> int

val param_count : t -> int
(** [6*(layers+1) + layers * Gate_type.param_count]. *)

val evaluate : t -> float array -> Mat.t
(** Template unitary at the given parameters. The result aliases workspace
    storage: copy it before the next [evaluate] call if you keep it. *)

val fidelity : t -> float array -> target:Mat.t -> float
(** Decomposition fidelity F_d = |Tr(U_d^dag U_t)| / 4 (Eq 1). *)

val infidelity : t -> float array -> target:Mat.t -> float

val infidelity_gradient :
  t -> float array -> target:Mat.t -> grad:float array -> float
(** [infidelity_gradient t params ~target ~grad] writes the exact gradient
    of [infidelity t _ ~target] at [params] into [grad] and returns the
    infidelity itself, bit-identical to [infidelity t params ~target].
    Costs about three template evaluations (a forward sweep of prefix
    products, a backward sweep of suffix products, one environment per
    differentiated factor) instead of the [2 * param_count] evaluations
    of a central difference.  Shares the workspace with {!evaluate}. *)

val gate_angles : t -> float array -> int -> float array
(** Angles of the k-th two-qubit layer (1-based); empty for fixed types. *)
