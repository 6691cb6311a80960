(** The [design] experiment: beam-searched instruction sets from a
    candidate pool, reported as the expressivity-vs-calibration Pareto
    frontier next to the Table II baselines. *)

val doc : Config.t -> Report.doc
(** Costs every point on a 54-qubit grid. *)
