(* Device-size x gate-type-count calibration sweeps (Fig 11a). *)

type row = {
  n_qubits : int;
  n_pairs : int;
  n_types : int;
  circuits : int;
  hours_serial : float;
  hours_parallel : float;
}

let default_device_sizes = [ 8; 54; 100; 500; 1000 ]
let default_type_counts = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let run ?(device_sizes = default_device_sizes) ?(type_counts = default_type_counts) () =
  let model = Model.default in
  List.concat_map
    (fun n_qubits ->
      let n_pairs = Model.grid_pairs n_qubits in
      List.map
        (fun n_types ->
          {
            n_qubits;
            n_pairs;
            n_types;
            circuits = Model.total_circuits model ~n_pairs ~n_types;
            hours_serial = Model.time_hours_serial model ~n_pairs ~n_types;
            hours_parallel = Model.time_hours_parallel model ~n_types;
          })
        type_counts)
    device_sizes

let pp_row ppf r =
  Fmt.pf ppf "%5d qubits  %4d pairs  %2d types  %12d circuits  %10.0f h serial  %6.0f h parallel"
    r.n_qubits r.n_pairs r.n_types r.circuits r.hours_serial r.hours_parallel
