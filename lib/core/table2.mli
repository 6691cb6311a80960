(** Table II: the instruction sets studied. *)

val doc : Config.t -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
