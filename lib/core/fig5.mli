(** Fig 5: noise-adaptive approximate decomposition walkthrough. *)

val doc : ?cfg:Config.t -> unit -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
