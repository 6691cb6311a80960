(** Fig 2: example NuOp decompositions (QV and QAOA unitaries). *)

val doc : ?cfg:Config.t -> unit -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
