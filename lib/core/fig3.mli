(** Fig 3: Aspen-8 ring calibration table. *)

val doc : Config.t -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
