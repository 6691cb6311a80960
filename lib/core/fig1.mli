(** Fig 1: framework block -> module map. *)

val doc : Config.t -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
