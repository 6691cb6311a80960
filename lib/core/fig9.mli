(** Fig 9: Aspen-8 instruction-set reliability study. *)

val doc : ?cfg:Config.t -> unit -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
