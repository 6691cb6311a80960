(** Fixed-size Domain pool for embarrassingly parallel maps.

    Results always come back in input order, so a parallel map is a
    drop-in replacement for [List.map] whenever the per-item work is
    independent and free of unsynchronized shared state.

    Helper domains are persistent: they are spawned by the first map
    that needs them and reused by every later map, so [k] consecutive
    maps at pool size [d] spawn [d - 1] domains in total, not
    [k * (d - 1)].  One map runs on the helpers at a time; a map issued
    while another domain's map holds them runs sequentially on its
    caller instead of waiting. *)

val default_domains : unit -> int
(** Pool size used when [?domains] is omitted: the [NUOP_DOMAINS]
    environment variable, else [Domain.recommended_domain_count ()]. *)

val parse_pool_size : string -> (int, string) result
(** Parse a [NUOP_DOMAINS]-style value: a positive integer (surrounding
    whitespace tolerated) or the reason it is rejected.  A rejected
    value makes {!default_domains} warn once on stderr and fall back to
    [Domain.recommended_domain_count] — never a silent pool of 1. *)

val inside_pool : unit -> bool
(** True while the calling domain is executing a pool task — clients can
    use it to pick a lazy sequential strategy instead of queueing a
    nested (and therefore sequentialized) map. *)

val sequential_scope : (unit -> 'a) -> 'a
(** Run [f] with the calling domain marked as a pool worker, so every
    {!map} issued inside degrades to the sequential fallback.  Used by
    subsystems that own long-lived worker domains (the compilation
    service) to keep N workers from oversubscribing the machine with
    nested pools; restores the previous mark on exit, even on raise. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f items] applies [f] to every item on a pool of
    [domains] domains (caller included) and returns the results in input
    order.  At pool size 1 — or when called from inside another pool
    worker, or while another domain's map holds the helpers — it
    degrades to a plain sequential map on the calling domain.  If any
    task raises, the first exception is re-raised after the pool drains;
    the helpers survive it. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Array variant of {!map}. *)

val helpers_spawned : unit -> int
(** Helper domains spawned so far in this process (they never exit). *)
