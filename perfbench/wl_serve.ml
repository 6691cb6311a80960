(* Workload [serve]: an in-process resident compilation server driven
   through [Service.Server.submit_line], exactly as the socket transport
   drives it.  Closed loop: [clients] requests outstanding, each reply
   submits the next, because callers such as [nuop request] and study
   scripts wait for every reply.  With [clients] = 4 and one worker per
   core, two requests always wait in the queue.

   The seeded mix, per block of 50 requests in shuffled order: 40
   compiles of keys warmed in set-up (cache reads), 5 compiles of fresh
   seeds (cache misses and inserts, 4 qubits), 4 small warm score ops
   (compile plus density simulation), and 1 malformed line whose correct
   answer is a typed bad_request.  Cache reads run beside inserts, so
   hits can queue behind misses. *)

open Common

let clients = 4
let min_requests = 1000

(* A run issues [seconds x sized_rate] requests (at least
   [min_requests]): about [seconds] of load on a 2-core box, and a fixed
   amount of work whatever the speed, so the cache inserts the misses
   make (and with them peak memory) do not depend on the machine. *)
let sized_rate = 400.0
let requests_for seconds = max min_requests (int_of_float (seconds *. sized_rate))

(* Throughput and the latency tail are taken per window of [window]
   completions (p99 then has 10 samples beyond it), and the median over
   windows is reported. *)
let window = 1000
let warm_keys = 16
let isa = "G2"
let qubits = 4
let block = [ (`Hit, 40); (`Miss, 5); (`Score, 4); (`Bad, 1) ]
let block_size = List.fold_left (fun acc (_, n) -> acc + n) 0 block

type cls = [ `Hit | `Miss | `Score | `Bad ]

let cls_name : cls -> string = function
  | `Hit -> "hit"
  | `Miss -> "miss"
  | `Score -> "score"
  | `Bad -> "bad"

(* Request seeds.  Only seeds whose 4-qubit QAOA circuit has exactly
   three ZZ interactions are used, so every compile has the same size
   and the per-seed cost differs only in routing and angles.  The warmed
   keys and the fresh (never repeated) misses come from disjoint seed
   ranges; a miss's range is indexed by its request number. *)
let three_edges s =
  let circuit = Service.Ops.benchmark_circuit ~app:"qaoa" ~qubits ~seed:s in
  Qcir.Circuit.two_qubit_count circuit = 3

let rec next_seed s = if three_edges s then s else next_seed (s + 1)

let warm_seeds ~seed =
  let rec go s k acc =
    if k = 0 then Array.of_list (List.rev acc)
    else
      let s = next_seed s in
      go (s + 1) (k - 1) (s :: acc)
  in
  go (100_000 + (seed mod 100_000 * 64)) warm_keys []

let fresh_seed ~seed i =
  next_seed (1_000_000_000 + (seed mod 1_000_000 * 100_000_000) + (64 * i))

(* Request [i]'s class: its position in the seeded shuffle of its block.
   Pure, because the reply callbacks that issue requests run on several
   worker domains at once. *)
let class_of ~seed i =
  let a = Array.of_list (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) block) in
  let rng = Linalg.Rng.create ((seed * 65_537) + (i / block_size)) in
  for k = Array.length a - 1 downto 1 do
    let j = Linalg.Rng.int rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done;
  a.(i mod block_size)

type request = {
  index : int;
  cls : cls;
  seed_used : int;
  line : string;
  refused_at_parse : bool;  (** not JSON: the front end answers synchronously *)
}

let compile_line ~id s =
  Printf.sprintf {|{"id":%d,"op":"compile","app":"qaoa","qubits":%d,"isa":"%s","seed":%d}|}
    id qubits isa s

let score_line ~id s =
  Printf.sprintf
    {|{"id":%d,"op":"score","app":"qaoa","qubits":%d,"count":1,"isa":"%s","seed":%d}|} id
    qubits isa s

let bad_line ~id =
  match id mod 3 with
  | 0 -> Printf.sprintf {|{"id":%d,"op":"compile","app":"qaoa",|} id
  | 1 ->
    Printf.sprintf {|{"id":%d,"op":"compile","app":"qaoa","qubits":4,"isa":"NO_SUCH_SET"}|} id
  | _ -> Printf.sprintf {|{"id":%d,"op":"compile","app":"qaoa","qubits":"four"}|} id

let request ~seed ~warm i =
  let warm () = warm.(Hashtbl.hash (seed, i) mod warm_keys) in
  let mk cls seed_used line =
    { index = i; cls; seed_used; line; refused_at_parse = false }
  in
  match class_of ~seed i with
  | `Hit ->
    let s = warm () in
    mk `Hit s (compile_line ~id:i s)
  | `Miss ->
    let s = fresh_seed ~seed i in
    mk `Miss s (compile_line ~id:i s)
  | `Score ->
    let s = warm () in
    mk `Score s (score_line ~id:i s)
  | `Bad -> { (mk `Bad 0 (bad_line ~id:i)) with refused_at_parse = i mod 3 = 0 }

(* ---------- set-up ---------- *)

let config () =
  {
    Service.Server.default_config with
    Service.Server.workers = domains ();
    (* the closed loop holds at most [clients] requests, so the queue
       never refuses *)
    queue_depth = 64;
  }

(* Submit lines and wait for every reply (set-up warming). *)
let submit_all server lines =
  let lock = Mutex.create () and cond = Condition.create () in
  let pending = ref (List.length lines) in
  List.iter
    (fun line ->
      Service.Server.submit_line server
        ~reply:(fun _ ->
          Mutex.lock lock;
          decr pending;
          Condition.signal cond;
          Mutex.unlock lock)
        line)
    lines;
  Mutex.lock lock;
  while !pending > 0 do
    Condition.wait cond lock
  done;
  Mutex.unlock lock

type env = { server : Service.Server.t; warm : int array }

let setup ~seed () =
  Decompose.Cache.clear ();
  let server = Service.Server.create (config ()) in
  let warm = warm_seeds ~seed in
  submit_all server
    (List.concat
       (List.mapi (fun k s -> [ compile_line ~id:(-1 - k) s; score_line ~id:(-1 - k) s ])
          (Array.to_list warm)));
  { server; warm }

(* ---------- the closed loop ---------- *)

(* What a reply keeps: the parsed outcome with a digest of the served
   output, not the response text, so memory stays flat however many
   requests run. *)
type outcome = Output of Digest.t | Error_kind of string | Garbled

type reply = {
  req : request;
  latency : float;
  done_at : float;
  outcome : outcome;
  line_digest : Digest.t;
}

let parse response =
  match Njson.of_string_result response with
  | Error _ -> Garbled
  | Ok j -> (
    match Njson.member "ok" j with
    | Some (Njson.Bool true) -> (
      match Option.bind (Njson.member "result" j) (Njson.member "output") with
      | Some (Njson.String s) -> Output (Digest.string s)
      | _ -> Garbled)
    | Some (Njson.Bool false) -> (
      match
        Option.bind (Njson.member "error" j) (Njson.member "kind")
        |> Fun.flip Option.bind Njson.to_string_value
      with
      | Some k -> Error_kind k
      | None -> Garbled)
    | _ -> Garbled)

let drive env ~seed ~requests ~first =
  let lock = Mutex.create () and cond = Condition.create () in
  let replies = ref [] and outstanding = ref 0 in
  let next = ref first in
  let t0 = now () in
  (* with [lock] held: issue request [i] if the run is not over; a reply
     takes its successor before releasing its own slot, so [outstanding]
     reaches 0 only when the loop is done *)
  let take () =
    let i = !next in
    if i - first < requests then begin
      incr next;
      incr outstanding;
      Some i
    end
    else None
  in
  let rec submit i =
    let req = request ~seed ~warm:env.warm i in
    let start = now () in
    ignore
      (Layers.span "service" (fun () ->
           Service.Server.submit_line env.server
             ~reply:(fun response ->
               let done_at = now () in
               let r =
                 {
                   req;
                   latency = done_at -. start;
                   done_at;
                   outcome = parse response;
                   line_digest = Digest.string response;
                 }
               in
               Mutex.lock lock;
               replies := r :: !replies;
               decr outstanding;
               let successor = take () in
               if !outstanding = 0 then Condition.signal cond;
               Mutex.unlock lock;
               Option.iter submit successor)
             req.line))
  in
  Mutex.lock lock;
  let firsts = List.filter_map (fun _ -> take ()) (List.init clients Fun.id) in
  Mutex.unlock lock;
  List.iter submit firsts;
  (* the main domain only waits *)
  Mutex.lock lock;
  while !outstanding > 0 do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  (List.rev !replies, t0, now () -. t0)

(* ---------- checks ---------- *)

let device = lazy (Service.Ops.resolve_device ~qubits "sycamore")

let reference_compile =
  let memo = Hashtbl.create 64 in
  fun s ->
    match Hashtbl.find_opt memo s with
    | Some v -> v
    | None ->
      let text, _ =
        Service.Ops.compile_text ~device:(Lazy.force device) ~isa:(Isa.Set.find_exn isa)
          ~isa_name:isa ~app:"qaoa"
          (Service.Ops.benchmark_circuit ~app:"qaoa" ~qubits ~seed:s)
      in
      Hashtbl.replace memo s text;
      text

let reference_score =
  let memo = Hashtbl.create 16 in
  fun s ->
    match Hashtbl.find_opt memo s with
    | Some v -> v
    | None ->
      let text, _ =
        Service.Ops.study_text ~device:(Lazy.force device) ~isa:(Isa.Set.find_exn isa)
          ~metric:(Service.Ops.study_metric "qaoa")
          (Service.Ops.study_circuits ~app:"qaoa" ~qubits ~count:1 ~seed:s)
      in
      Hashtbl.replace memo s text;
      text

(* Each reply against an independent one-shot reference: served compile
   and score text byte-identical to [Service.Ops] called directly, every
   malformed line a typed bad_request, never an [internal]. *)
let check_replies c replies =
  List.iter
    (fun r ->
      let ok, got =
        match (r.req.cls, r.outcome) with
        | (`Hit | `Miss), Output d ->
          (Digest.equal d (Digest.string (reference_compile r.req.seed_used)), "output")
        | `Score, Output d ->
          (Digest.equal d (Digest.string (reference_score r.req.seed_used)), "output")
        | `Bad, Error_kind "bad_request" -> (true, "bad_request")
        | _, Output _ -> (false, "output")
        | _, Error_kind k -> (false, k)
        | _, Garbled -> (false, "an unparsable line")
      in
      op c ok "serve: request %d (%s, seed %d) answered %s%s" r.req.index
        (cls_name r.req.cls) r.req.seed_used got
        (if ok then "" else " that differs from the one-shot reference"))
    replies

let latencies_of ?cls replies =
  List.filter_map
    (fun r -> match cls with Some c when r.req.cls <> c -> None | _ -> Some r.latency)
    replies

let share cls replies =
  ratio
    (float_of_int (List.length (List.filter (fun r -> r.req.cls = cls) replies)))
    (float_of_int (List.length replies))

let print_params ~seed ~seconds =
  section "serve: parameters";
  kv "seed" "%d" seed;
  kv "server" "%d worker domains, queue depth %d" (domains ())
    (config ()).Service.Server.queue_depth;
  kv "load" "closed loop, %d outstanding requests" clients;
  kv "mix per 50 requests" "40 warm compile, 5 fresh compile, 4 warm score, 1 malformed";
  kv "requests" "qaoa %d qubits with 3 ZZ terms, set %s; %d warmed keys" qubits isa
    warm_keys;
  kv "requests per run" "%d (%.0f/s x --seconds, at least %d)" (requests_for seconds)
    sized_rate min_requests

let target = function `Hit -> 0.80 | `Miss -> 0.10 | `Score -> 0.08 | `Bad -> 0.02

(* The mix the workload was chosen for: the measured class shares match
   the target to within one partial block. *)
let check_mix c replies =
  let slack = float_of_int block_size /. float_of_int (max 1 (List.length replies)) in
  List.iter
    (fun cls ->
      check c
        (Float.abs (share cls replies -. target cls) <= slack)
        "serve: %s share %.4f, target %.2f" (cls_name cls) (share cls replies) (target cls))
    [ `Hit; `Miss; `Score; `Bad ]

let print_mix replies =
  kv "requests completed" "%d" (List.length replies);
  kv "warmed-key share" "%.4f measured (target 0.80 compile + 0.08 score)"
    (share `Hit replies +. share `Score replies);
  List.iter
    (fun cls ->
      kv (cls_name cls ^ " share") "%.4f (target %.2f)" (share cls replies) (target cls))
    [ `Hit; `Miss; `Score; `Bad ]

(* The first [min_requests] requests of the stream and their answers, in
   request order: a run with the same seed reproduces them exactly. *)
let digest ~first replies =
  let b = Buffer.create 4096 in
  List.sort (fun a b -> compare a.req.index b.req.index) replies
  |> List.iter (fun r ->
         if r.req.index - first < min_requests then
           Printf.bprintf b "%s=>%s\n" r.req.line (Digest.to_hex r.line_digest));
  digest_hex (Buffer.contents b)

let stop env = Service.Server.drain env.server

(* ---------- end-to-end run ---------- *)

(* Consecutive windows of [window] completions: each window's rate, and
   its p99 latency. *)
let windows ~t0 replies =
  let sorted = Array.of_list (List.sort (fun a b -> compare a.done_at b.done_at) replies) in
  let n = Array.length sorted / window in
  List.init n (fun w ->
      let last = sorted.(((w + 1) * window) - 1) in
      let start = if w = 0 then t0 else sorted.((w * window) - 1).done_at in
      let lat = List.init window (fun k -> sorted.((w * window) + k).latency) in
      ( ratio (float_of_int window) (last.done_at -. start),
        percentile (sorted_array lat) 99.0 ))

let run c ~seed ~seconds =
  let env, setup_s = setup_median ~repeats:5 ~dispose:stop (setup ~seed) in
  print_params ~seed ~seconds;
  let h0, m0 = Decompose.Cache.stats () in
  let replies, t0, elapsed = drive env ~seed ~requests:(requests_for seconds) ~first:0 in
  let h1, m1 = Decompose.Cache.stats () in
  stop env;
  check_replies c replies;
  check_mix c replies;
  section "serve: results";
  print_mix replies;
  kv "cache lookups (timed)" "%d hits, %d misses" (h1 - h0) (m1 - m0);
  kv "digest" "%s" (digest ~first:0 replies);
  let lat = latencies_of replies in
  let a = sorted_array lat in
  let ws = windows ~t0 replies in
  let p99 = median (List.map snd ws) in
  section "serve: end-to-end";
  kv "req_per_s" "%.3f 1/s (median over %d windows of %d requests)"
    (median (List.map fst ws))
    (List.length ws) window;
  kv "request_p50_ms" "%.3f ms (%d requests)" (1000.0 *. percentile a 50.0)
    (Array.length a);
  kv "request_p99_ms" "%.3f ms (median of per-window p99, 10 samples beyond each)"
    (1000.0 *. p99);
  end_to_end c ~setup_s ~unit_name:"requests" ~units:(List.length replies) ~elapsed
    ~rates:(List.map fst ws) ~latencies:lat
    ~tail:(Printf.sprintf "p99 per %d-request window, median" window, p99)
    ()

(* ---------- traced run ---------- *)

let counter name = Option.value ~default:0 (List.assoc_opt name (Obs.Counter.all ()))

let run_traced c ~seed ~seconds ~trace_path =
  let env = setup ~seed () in
  print_params ~seed ~seconds;
  let half = requests_for (seconds /. 2.0) in
  let plain, _, plain_s = drive env ~seed ~requests:half ~first:0 in
  let svc = [ "service.completed"; "service.rejected"; "service.timeout" ] in
  let before = List.map counter svc in
  let h0, m0 = Decompose.Cache.stats () in
  let (traced, _, traced_s), check_result, tr =
    Layers.traced trace_path (fun () -> drive env ~seed ~requests:half ~first:1_000_000)
  in
  let h1, m1 = Decompose.Cache.stats () in
  let deltas = List.map2 (fun n b -> (n, float_of_int (counter n - b))) svc before in
  stop env;
  Layers.validated c check_result;
  check_replies c (plain @ traced);
  check_mix c traced;
  section "serve: traced phase";
  print_mix traced;
  let exec = sorted_array (Layers.durations tr "service.request") in
  (* requests that reached a worker: all but the non-JSON lines, which
     the front end refuses synchronously *)
  let queued = List.filter (fun r -> not r.req.refused_at_parse) traced in
  let hits = h1 - h0 and misses = m1 - m0 in
  kv "cache lookups" "%d (%d hits, %d misses)" (hits + misses) hits misses;
  kv "service.request spans" "%d" (Array.length exec);
  let per_unit replies s = ratio s (float_of_int (List.length replies)) in
  Layers.overhead ~untraced:(per_unit plain plain_s) ~traced:(per_unit traced traced_s)
  @ [
      ("decompose.cache.misses", float_of_int misses);
      ( "decompose.cache.hit_ratio",
        ratio (float_of_int hits) (float_of_int (hits + misses)) );
      ("concurrent.pool.busy_share", Layers.pool_busy_share tr);
      ( "compiler.compile_ms.p50",
        1000.0 *. median (Layers.durations tr "pass_manager.run") );
      ("compiler.pass.place_ms", Layers.pass_ms tr "place");
      ("compiler.pass.route_ms", Layers.pass_ms tr "route");
      ("compiler.pass.lower_ms", Layers.pass_ms tr "lower");
      ("compiler.pass.compact_ms", Layers.pass_ms tr "compact");
      ("compiler.pass.schedule_ms", Layers.pass_ms tr "schedule");
      ("service.exec_ms.p50", 1000.0 *. percentile exec 50.0);
      ("service.exec_ms.p99", 1000.0 *. percentile exec 99.0);
      ( "service.queue_wait_ms.mean",
        1000.0 *. (mean (latencies_of queued) -. mean (Array.to_list exec)) );
      ("service.hit_latency_ms.p50", 1000.0 *. median (latencies_of ~cls:`Hit traced));
      ("service.miss_latency_ms.p50", 1000.0 *. median (latencies_of ~cls:`Miss traced));
    ]
  @ deltas
  @ Layers.layer_values tr
