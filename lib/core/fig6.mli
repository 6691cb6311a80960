(** Fig 6: NuOp vs Cirq-equivalent baseline gate counts. *)

val doc : ?cfg:Config.t -> unit -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
