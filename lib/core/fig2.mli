(** Fig 2: example NuOp decompositions (QV and QAOA unitaries). *)

val doc : Config.t -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
