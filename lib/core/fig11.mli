(** Fig 11: calibration overhead vs application performance. *)

val doc : Config.t -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
