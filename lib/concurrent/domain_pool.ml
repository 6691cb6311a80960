(* Fixed-size Domain pool for embarrassingly parallel maps.

   A map call runs on [domains - 1] helper domains plus the caller, hands
   out task indices through one atomic counter, and writes results into
   a preallocated slot array — so the output order is the input order
   regardless of which domain ran which task.

   Helpers are persistent: the first map that needs [k] of them spawns
   them, and later maps hand their work to the same idle domains instead
   of a Domain.spawn/join per map (that churn grows the heap with the
   number of maps).  The pool serves one map at a time; a map issued
   while another caller's map holds the helpers runs sequentially on its
   own domain — it never blocks and never spawns.

   Nesting guard: a map issued from inside a worker runs sequentially on
   that worker.  The outer map already owns the pool; letting inner loops
   spawn their own domains would oversubscribe the machine quadratically
   (suite evaluation over circuits calls the multistart optimizer, which
   is itself a pool client). *)

let parse_pool_size s =
  match int_of_string_opt (String.trim s) with
  | Some n when n > 0 -> Ok n
  | Some n -> Error (Printf.sprintf "non-positive pool size %d" n)
  | None -> Error "not an integer"

(* A malformed NUOP_DOMAINS used to silently degrade the pool to 1,
   serializing the whole suite with no signal.  Now the offending value
   is reported once (Obs.Log's built-in warn-once) and the pool falls
   back to the machine default instead. *)
let default_domains () =
  match Sys.getenv_opt "NUOP_DOMAINS" with
  | Some s -> (
    match parse_pool_size s with
    | Ok n -> n
    | Error reason ->
      let fallback = Domain.recommended_domain_count () in
      Obs.Log.warn_once ~key:"NUOP_DOMAINS"
        "nuop: ignoring invalid NUOP_DOMAINS=%S (%s); using %d domains" s reason fallback;
      fallback)
  | None -> Domain.recommended_domain_count ()

(* true while executing inside a pool worker (per-domain flag) *)
let inside_pool_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let inside_pool () = Domain.DLS.get inside_pool_key

(* Long-lived worker domains owned by other subsystems (the compilation
   service) run their jobs under this scope: nested maps degrade to the
   sequential fallback exactly as if the job ran on a pool task, so a
   server with N workers never multiplies into N * recommended_domain_count
   domains.  Results are unchanged by construction — every pool client
   is pool-size invariant, sequential fallback included. *)
let sequential_scope f =
  let prev = Domain.DLS.get inside_pool_key in
  Domain.DLS.set inside_pool_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set inside_pool_key prev) f

(* ---------- persistent helpers ---------- *)

(* One map's work, broadcast to the helpers: those with an index below
   [helpers] run [work] once; the rest sit it out. *)
type job = { work : unit -> unit; helpers : int }

let lock = Mutex.create ()
let wake = Condition.create ()  (* a new job was posted *)
let finished = Condition.create ()  (* the last participating helper is done *)

(* All guarded by [lock]. *)
let generation = ref 0  (* bumped once per posted job *)
let job = ref None
let pending = ref 0  (* participating helpers still running [work] *)

(* Only the owner of [busy] posts jobs or spawns helpers. *)
let busy = Atomic.make false
let spawned = Atomic.make 0

let helpers_spawned () = Atomic.get spawned

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* A helper's whole life: wait for a job newer than the last one it saw,
   run it if it takes part, report back, repeat.  [work] never raises
   (task failures are caught into the map's failure slot). *)
let rec helper_loop index seen =
  let gen, current =
    with_lock (fun () ->
        while !generation = seen do
          Condition.wait wake lock
        done;
        (!generation, !job))
  in
  (match current with
  | Some j when index < j.helpers ->
    j.work ();
    with_lock (fun () ->
        decr pending;
        if !pending = 0 then Condition.signal finished)
  | Some _ | None -> ());
  helper_loop index gen

(* Spawn helpers until [k] exist (the caller owns [busy]); returns how
   many exist, which is fewer than [k] only if the runtime refused a
   domain. *)
let ensure_helpers k =
  let rec grow () =
    let n = Atomic.get spawned in
    if n >= k then n
    else
      match
        let seen = with_lock (fun () -> !generation) in
        Domain.spawn (fun () ->
            Domain.DLS.set inside_pool_key true;
            helper_loop n seen)
      with
      | (_ : unit Domain.t) ->
        Atomic.incr spawned;
        grow ()
      | exception Failure _ -> n
  in
  grow ()

(* Run [work] on [k] helpers and on the caller — marked as a pool member,
   so nested maps from its tasks run sequentially as on the helpers —
   and return once all of them are done. *)
let run_on_helpers k work =
  with_lock (fun () ->
      job := Some { work; helpers = k };
      pending := k;
      incr generation;
      Condition.broadcast wake);
  Fun.protect
    ~finally:(fun () ->
      with_lock (fun () ->
          while !pending > 0 do
            Condition.wait finished lock
          done;
          (* drop the closure so the map's items and results can be freed *)
          job := None))
    (fun () -> sequential_scope work)

let map_array ?domains f items =
  let n = Array.length items in
  let requested = match domains with Some d -> d | None -> default_domains () in
  let pool = min requested n in
  if n = 0 then [||]
  else if
    pool <= 1
    || Domain.DLS.get inside_pool_key
    || not (Atomic.compare_and_set busy false true)
  then Array.map f items
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set busy false)
      (fun () ->
        let helpers = min (pool - 1) (ensure_helpers (pool - 1)) in
        (* Tracing: the whole map is one span on the caller's domain and
           — only while a sink is listening — every task gets a child span
           on whichever domain ran it.  [traced] is latched here so an
           untraced map pays nothing per task (no clock reads, no
           allocation); the task spans name the map span as their
           explicit parent because the helpers' own span stacks are
           empty. *)
        let traced = Obs.Sink.active () in
        let map_span = if traced then Some (Obs.Span.enter "pool.map") else None in
        let parent = Option.map (fun (s : Obs.Span.t) -> s.Obs.Span.id) map_span in
        let results = Array.make n None in
        let next = Atomic.make 0 in
        let failure = Atomic.make None in
        let run_task i =
          if traced then
            Obs.Span.with_ ?parent
              ~attrs:[ ("index", string_of_int i) ]
              "pool.task"
              (fun () -> f items.(i))
          else f items.(i)
        in
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n && Atomic.get failure = None then begin
            (try results.(i) <- Some (run_task i)
             with exn ->
               (* first failure wins; remaining tasks are abandoned *)
               ignore (Atomic.compare_and_set failure None (Some exn)));
            loop ()
          end
        in
        run_on_helpers helpers loop;
        (match map_span with
        | Some s ->
          ignore
            (Obs.Span.exit s
               ~attrs:
                 [ ("tasks", string_of_int n); ("domains", string_of_int (helpers + 1)) ])
        | None -> ());
        (match Atomic.get failure with Some exn -> raise exn | None -> ());
        Array.map
          (function Some v -> v | None -> assert false (* all slots filled *))
          results)

let map ?domains f items =
  Array.to_list (map_array ?domains f (Array.of_list items))
