(** State-vector simulator on unboxed float arrays.

    Qubit [q] is bit [q] of the amplitude index (qubit 0 least
    significant). *)

open Linalg

type t

val max_qubits : int

val create : int -> t
(** |0...0> on n qubits. *)

val of_basis : int -> int -> t
(** [of_basis n k] is the computational basis state |k>. *)

val n_qubits : t -> int
val dim : t -> int
val copy : t -> t

val amplitude : t -> int -> Complex.t
val set_amplitude : t -> int -> Complex.t -> unit

val norm2 : t -> float
val normalize : t -> unit
val probability : t -> int -> float
val probabilities : t -> float array

val inner : t -> t -> Complex.t
val fidelity_pure : t -> t -> float
(** |<a|b>|^2. *)

val apply_matrix : t -> Mat.t -> int array -> unit
(** Apply a 2^k x 2^k matrix to the listed qubits; [qubits.(0)] is the
    most significant bit of the matrix index.  The matrix need not be
    unitary (the density simulator applies superoperators).  k = 1 and
    k = 2 run unrolled stride kernels, bit-identical to
    {!apply_matrix_generic}.  Raises [Invalid_argument] for a qubit out
    of range, a repeated qubit, or a matrix that is not 2^k x 2^k. *)

val apply_matrix_conj : t -> Mat.t -> offset:int -> int array -> unit
(** [apply_matrix_conj t m ~offset qs] applies [conj m] to the qubits
    [qs.(j) + offset] without copying [m] or [qs]: the bra half of a
    unitary in the vectorized density simulator. *)

val apply_matrix_generic : t -> Mat.t -> int array -> unit
(** The general gather/scatter kernel for any k, which {!apply_matrix}
    uses for k > 2.  Exposed as the reference for the stride kernels. *)

val apply_pauli : t -> int -> int -> unit
(** [apply_pauli t index q] applies Pauli [index] (1 = X, 2 = Y, 3 = Z)
    to qubit [q] by swaps and sign flips.  The amplitudes equal
    {!apply_matrix} with [Gates.Oneq.pauli_of_index index] up to the sign
    of zeros. *)

val unsafe_re : t -> float array
val unsafe_im : t -> float array
(** The live amplitude storage (real and imaginary parts), for the
    allocation-free kernels of the other simulators. *)

val apply_instr : t -> Qcir.Instr.t -> unit
val run_circuit : Qcir.Circuit.t -> t
val run_circuit_on : t -> Qcir.Circuit.t -> unit
