(** Table I: gate families, fidelity models and identity checks. *)

val doc : Config.t -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
