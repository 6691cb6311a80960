(** Fig 10: Sycamore instruction-set reliability study. *)

val doc : Config.t -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
