(** The [design] experiment: beam-searched instruction sets from a
    candidate pool, reported as the expressivity-vs-calibration Pareto
    frontier next to the Table II baselines. *)

val doc : ?cfg:Config.t -> ?n_qubits:int -> ?smoke:bool -> unit -> Report.doc
(** [smoke] shrinks the pool/samples/search to a seconds-long run for
    the CI alias (default false; default device: 54 qubits). *)
