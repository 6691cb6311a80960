(** The single source of truth for the paper's experiments.

    [nuop experiment] dispatches through this list; adding an entry here
    is all it takes to appear in [nuop experiment all], the JSON artifact
    and its completeness check. *)

type entry = {
  name : string;  (** CLI name, e.g. ["fig9"] *)
  description : string;
  run : Config.t -> Report.doc;
}

val all : entry list
(** In presentation order: tables, figures, ablations. *)

val find : string -> entry option
(** Case-insensitive, matching the ISA and Device registry
    conventions. *)

val find_exn : string -> entry
(** Like {!find}; a miss raises [Invalid_argument] listing every known
    experiment name. *)

val names : string list

val run : ?attrs:(string * string) list -> Config.t -> entry -> Report.doc * float
(** [run cfg e] builds [e]'s document inside an ["experiment"] span
    (attributes: the experiment name, then [attrs]) and returns it with
    its wall-clock seconds. *)

val artifact :
  date:string -> scale:string -> (entry * Report.doc * float) list -> Njson.t
(** The [nuop-bench/1] artifact: schema, date, scale, and one node per
    [(entry, doc, seconds)] run, in order (see {!Report.to_json}). *)

val check_artifact : names:string list -> string -> (int, string) result
(** [check_artifact ~names text] parses [text] as an artifact and checks
    that it has an experiment node for every name in [names]: [Ok n] with
    the number of nodes, else [Error] naming the missing experiments, or
    carrying the parser's line and column when [text] is not JSON. *)
