(** Fig 8: expressivity heatmaps over the fSim parameter space. *)

val doc : Config.t -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
