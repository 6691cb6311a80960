(** Noise channels: the paper's three structured channels, kept as
    parameters, and general Kraus sets. *)

open Linalg

type t

type kind =
  | Depolarizing of float
      (** [p]: (1-p) rho + p/(d^2-1) sum of the non-identity Paulis,
          i.e. s rho + c Tr_sub(rho) (x) I with s = 1 - p d^2/(d^2-1)
          and c = p d/(d^2-1) *)
  | Amplitude_damping of float  (** [gamma] *)
  | Phase_damping of float  (** [lambda] *)
  | General of Mat.t list  (** any trace-preserving Kraus set *)

val make : string -> Mat.t list -> t
(** A [General] channel.  Raises [Invalid_argument] if the Kraus set is
    empty or not trace preserving. *)

val kind : t -> kind
(** How the density simulator applies the channel: the structured kinds
    in closed form, [General] through {!superoperator}. *)

val name : t -> string
val kraus : t -> Mat.t list
(** Built on demand for the structured kinds. *)

val dim : t -> int

val superoperator : t -> Mat.t
(** S = sum_m K_m (x) conj(K_m); a d^2 x d^2 matrix applied by the
    vectorized density simulator on (ket, bra) index-qubit groups. *)

val identity : int -> t

(** The structured constructors raise [Invalid_argument] for a parameter
    outside [0, 1].  A zero depolarizing probability gives {!identity}. *)

val depolarizing_1q : float -> t
val depolarizing_2q : float -> t
val amplitude_damping : float -> t
val phase_damping : float -> t

val damping_params : t1:float -> t2:float -> duration:float -> float * float
(** (gamma, lambda) for amplitude/phase damping over a gate duration. *)

val apply_readout_error : error_rates:float array -> float array -> float array
(** Classical per-qubit bit-flip confusion applied to a probability
    vector. *)
