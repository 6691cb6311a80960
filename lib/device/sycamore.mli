(** Google Sycamore device model (54 qubits, grid connectivity).

    Gate error rates follow the distributions stated in Sec VI of the
    paper: SYC errors ~ N(0.62%, 0.24%), other types iid from the same
    distribution.  [vary:false] disables cross-type variation (Fig 10e). *)

val rows : int
val cols : int
val n_qubits : int

val err_mu : float
val err_sigma : float
val t1_seconds : float
val t2_seconds : float
val duration_1q : float
val duration_2q : float
val oneq_error_rate : float
val readout_error_rate : float

val default_types : Gates.Gate_type.t list
(** S1-S7 plus SWAP (Table II's Google sets). *)

val type_durations : (Gates.Gate_type.t * float) list
(** Per-type gate durations (seconds) written into every device
    instance: SYC at 12 ns up to SWAP at 78 ns (3x CZ).  Types not
    listed fall back to the 32 ns device scalar. *)

val device : unit -> Calibration.t
(** The full 54-qubit grid (seed 23). *)

val line_device :
  ?seed:int ->
  ?vary:bool ->
  ?types:Gates.Gate_type.t list ->
  ?mu:float ->
  ?sigma:float ->
  ?oneq:float ->
  int ->
  Calibration.t
(** A k-qubit line with Sycamore's error model — the placement used for
    the 3-6 qubit benchmark simulations.  Raises [Invalid_argument]
    unless [2 <= k <= 30]. *)
