(** Executes a pass stack over a shared context, recording per-pass
    metrics (wall time, gate/SWAP/depth deltas, decomposition-cache
    hits). *)

type pass_metrics = {
  pass_name : string;
  time_s : float;
  oneq_before : int;
  oneq_after : int;
  twoq_before : int;
  twoq_after : int;
  swaps_before : int;
  swaps_after : int;
  depth_before : int;
  depth_after : int;
  duration_before : float;  (** timed-executable length before the pass, s *)
  duration_after : float;
  cache_hits : int;
  cache_misses : int;
  cache_warm_hits : int;
      (** subset of [cache_hits] served from a loaded cache snapshot;
          rendered in the trace table only when non-zero, so cold runs
          print exactly as before *)
}

val run : Pass.t list -> Pass.Context.t -> pass_metrics list
(** Run the stack in order, mutating the context; one metrics record per
    pass. *)

(** Rendering helpers: a header and rows for a [Core.Report.Table] block
    (also used by the CLI's [compile --trace-passes]). *)

val header : string list
val rows : pass_metrics list -> string list list
