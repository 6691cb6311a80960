(** Device-size x gate-type-count calibration sweeps (Fig 11a). *)

type row = {
  n_qubits : int;
  n_pairs : int;
  n_types : int;
  circuits : int;
  hours_serial : float;
  hours_parallel : float;
}

val default_device_sizes : int list
val default_type_counts : int list

val run : ?device_sizes:int list -> ?type_counts:int list -> unit -> row list
(** One row per device size and gate-type count under
    {!Model.default}. *)

val pp_row : Format.formatter -> row -> unit
