(* Layer attribution for the traced run.

   The benchmark wraps each of its own calls into a library layer in a
   [bench.<layer>] span ({!span}); the program's existing spans
   ([pool.map]/[pool.task], [pass_manager.run]/[pass.*],
   [service.request]) come along in the same JSONL trace.  {!analyze}
   reads the trace back, attributes every span to a layer, and sweeps
   each domain's event stream to split wall time into per-layer busy
   time (some span of the layer is open on the domain) and self time
   (the layer's span is the innermost open span on the domain, i.e. the
   span's duration minus the part of it its children cover). *)

let names = [ "decompose"; "optimize"; "concurrent"; "compiler"; "sim"; "service" ]

(* Time [f] as a call into [layer]: a [bench.<layer>] span when a sink
   listens, a bare clock pair otherwise.  Returns the elapsed seconds. *)
let span layer f = Obs.Span.timed ("bench." ^ layer) f

(* Layer of a span by name; [None] inherits from the parent. *)
let own_layer name =
  let prefix p = String.starts_with ~prefix:p name in
  if prefix "bench." then Some (String.sub name 6 (String.length name - 6))
  else if name = "pool.map" then Some "concurrent"
  else if name = "pass_manager.run" || prefix "pass." then Some "compiler"
  else if name = "service.request" then Some "service"
  else None

type span = {
  name : string;
  dur : float;  (** seconds *)
  attrs : (string * string) list;
}

type t = {
  spans : span list;  (** every completed span, in end order *)
  busy : (string, float) Hashtbl.t;  (** layer -> domain-seconds *)
  self : (string, float) Hashtbl.t;  (** layer -> domain-seconds *)
}

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
let add tbl k v = Hashtbl.replace tbl k (v +. get tbl k)

let str key j = Option.bind (Njson.member key j) Njson.to_string_value
let num key j = Option.bind (Njson.member key j) Njson.to_float_value
let int key j = match Njson.member key j with Some (Njson.Int i) -> Some i | _ -> None

(* Parse a trace that {!Obs.Trace.check_string} accepted. *)
let analyze text =
  (* span id -> (its layer, the layer its children inherit): the pool
     passes its caller's layer through, so a task belongs to whatever
     layer issued the map *)
  let layer_of : (int, string * string) Hashtbl.t = Hashtbl.create 1024 in
  (* per domain: open stack of (id, layer) and the last event time *)
  let stacks : (int, (int * string) list) Hashtbl.t = Hashtbl.create 4 in
  let last_t : (int, float) Hashtbl.t = Hashtbl.create 4 in
  let busy = Hashtbl.create 8 and self = Hashtbl.create 8 in
  let spans = ref [] in
  (* charge the interval since the domain's last event to its stack *)
  let advance dom t =
    let stack = Option.value ~default:[] (Hashtbl.find_opt stacks dom) in
    (match (stack, Hashtbl.find_opt last_t dom) with
    | (_, top_layer) :: _, Some t0 ->
      let dt = Float.max 0.0 (t -. t0) in
      add self top_layer dt;
      List.iter (fun l -> add busy l dt) (List.sort_uniq compare (List.map snd stack))
    | _ -> ());
    Hashtbl.replace last_t dom t;
    stack
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         match Njson.of_string_result line with
         | Error _ -> ()
         | Ok j -> (
           match (str "ev" j, int "dom" j, num "t" j) with
           | Some "start", Some dom, Some t ->
             let id = Option.value ~default:0 (int "id" j) in
             let name = Option.value ~default:"" (str "name" j) in
             let parent = Option.bind (int "parent" j) (Hashtbl.find_opt layer_of) in
             let layer, work =
               match (own_layer name, parent) with
               | Some "concurrent", Some (_, w) -> ("concurrent", w)
               | Some l, _ -> (l, l)
               | None, Some (_, w) -> (w, w)
               | None, None -> ("other", "other")
             in
             Hashtbl.replace layer_of id (layer, work);
             let stack = advance dom t in
             Hashtbl.replace stacks dom ((id, layer) :: stack)
           | Some "end", Some dom, Some t ->
             let stack = advance dom t in
             Hashtbl.replace stacks dom (match stack with _ :: rest -> rest | [] -> []);
             let attrs =
               match Njson.member "attrs" j with
               | Some (Njson.Obj kvs) ->
                 List.filter_map
                   (fun (k, v) -> Option.map (fun s -> (k, s)) (Njson.to_string_value v))
                   kvs
               | _ -> []
             in
             spans :=
               {
                 name = Option.value ~default:"" (str "name" j);
                 dur = Option.value ~default:0.0 (num "dur" j);
                 attrs;
               }
               :: !spans
           | _ -> ()));
  { spans = List.rev !spans; busy; self }

let durations t name =
  List.filter_map (fun s -> if s.name = name then Some s.dur else None) t.spans

(* Share of the pool's domain-time that ran tasks:
   sum pool.task / sum (pool.map x domains). *)
let pool_busy_share t =
  let tasks = List.fold_left ( +. ) 0.0 (durations t "pool.task") in
  let capacity =
    List.fold_left
      (fun acc s ->
        if s.name <> "pool.map" then acc
        else
          let d =
            Option.value ~default:1
              (Option.bind (List.assoc_opt "domains" s.attrs) int_of_string_opt)
          in
          acc +. (s.dur *. float_of_int d))
      0.0 t.spans
  in
  Common.ratio tasks capacity

let pass_ms t pass = 1000.0 *. Common.mean (durations t ("pass." ^ pass))

(* Trace a phase into [path], validate the file and analyze it. *)
let traced path f =
  let v = Obs.Trace.with_file path f in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let check = Obs.Trace.check_string text in
  (v, check, analyze text)

let validated c = function
  | Ok st ->
    Common.kv "trace" "valid: %d events, %d spans, depth %d" st.Obs.Trace.events
      st.Obs.Trace.spans st.Obs.Trace.max_depth;
    Common.check c true ""
  | Error reason ->
    Common.check c false "trace rejected by Obs.Trace.check_string: %s" reason

(* (traced - untraced) / untraced wall time per unit of work *)
let overhead ~untraced ~traced =
  [ ("obs.tracing_overhead", Common.ratio (traced -. untraced) untraced) ]

let layer_values t =
  List.concat_map
    (fun l ->
      [
        (Printf.sprintf "layer.%s.busy_s" l, get t.busy l);
        (Printf.sprintf "layer.%s.self_s" l, get t.self l);
      ])
    names
