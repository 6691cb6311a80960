(** Fig 5: noise-adaptive approximate decomposition walkthrough. *)

val doc : Config.t -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
