(** Fig 4: the NuOp template circuit, rendered concretely. *)

val doc : Config.t -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
