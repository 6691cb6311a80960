(** Fig 4: the NuOp template circuit, rendered concretely. *)

val doc : ?cfg:Config.t -> unit -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
