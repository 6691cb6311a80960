(** Ablation studies for design decisions and extensions beyond Table II. *)

val doc : ?cfg:Config.t -> unit -> Report.doc
(** Build the experiment's report document (runs the experiment). *)
