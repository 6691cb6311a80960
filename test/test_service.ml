(* The resident compilation service (lib/service): protocol parsing and
   rendering, the bounded queue, monotonic deadlines, the server engine
   (injected executors: retries, drain refusals), the compile/score
   parameter tables (bounds, unknown fields, the README table), and the
   satellite fixes that ride with it — Njson.of_string_result line/column errors,
   case-insensitive experiment lookup, fresh_path clobber avoidance. *)

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* ---------- Njson.of_string_result (boundary parsing) ---------- *)

let test_of_string_result_ok () =
  match Njson.of_string_result "{\"a\": [1, 2.5, null, true]}" with
  | Ok (Njson.Obj [ ("a", Njson.List _) ]) -> ()
  | Ok _ -> Alcotest.fail "parsed into the wrong shape"
  | Error e -> Alcotest.fail e

let test_of_string_result_locates_errors () =
  let expect_located s =
    match Njson.of_string_result s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed" s)
    | Error msg ->
      let has needle =
        Astring.String.is_infix ~affix:needle msg
      in
      check_bool
        (Printf.sprintf "%S error mentions line and column (%s)" s msg)
        true
        (has "line " && has "column ")
  in
  expect_located "{\"a\": }";
  expect_located "[1, 2";
  expect_located "{\n  \"a\": 1,\n  \"b\": oops\n}";
  expect_located "nope"

let test_of_string_result_multiline_position () =
  (* the broken token sits on line 3 *)
  match Njson.of_string_result "{\n  \"a\": 1,\n  \"b\": oops\n}" with
  | Ok _ -> Alcotest.fail "parsed"
  | Error msg ->
    check_bool
      (Printf.sprintf "mentions line 3 (%s)" msg)
      true
      (Astring.String.is_infix ~affix:"line 3" msg)

(* ---------- Registry: case-insensitive lookup ---------- *)

let test_registry_case_insensitive () =
  match Core.Registry.names with
  | [] -> Alcotest.fail "empty registry"
  | name :: _ ->
    let shout = String.uppercase_ascii name in
    (match Core.Registry.find shout with
    | Some e -> check_string "same entry" name e.Core.Registry.name
    | None -> Alcotest.fail (Printf.sprintf "find %S missed" shout));
    (match Core.Registry.find (String.capitalize_ascii name) with
    | Some e -> check_string "capitalized" name e.Core.Registry.name
    | None -> Alcotest.fail "capitalized lookup missed")

let test_registry_miss_lists_names () =
  match Core.Registry.find_exn "definitely-not-an-experiment" with
  | _ -> Alcotest.fail "found a bogus experiment"
  | exception Invalid_argument msg ->
    List.iter
      (fun n ->
        check_bool
          (Printf.sprintf "miss message lists %s" n)
          true
          (Astring.String.is_infix ~affix:n msg))
      Core.Registry.names

(* ---------- Report.fresh_path (bench artifact clobber fix) ---------- *)

let test_fresh_path () =
  let dir = Filename.temp_file "nuop-fresh" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let base = Filename.concat dir "BENCH_2026-01-01.json" in
      check_string "free path is untouched" base (Core.Report.fresh_path base);
      let touch f = Out_channel.with_open_text f (fun oc -> output_string oc "x") in
      touch base;
      let second = Core.Report.fresh_path base in
      check_string "first collision takes -2"
        (Filename.concat dir "BENCH_2026-01-01-2.json")
        second;
      touch second;
      check_string "second collision takes -3"
        (Filename.concat dir "BENCH_2026-01-01-3.json")
        (Core.Report.fresh_path base))

(* ---------- protocol ---------- *)

let test_parse_request () =
  match
    Service.Protocol.parse
      "{\"id\": 7, \"op\": \"compile\", \"deadline_ms\": 250, \"app\": \"qft\"}"
  with
  | Error (_, e) -> Alcotest.fail e.Service.Protocol.message
  | Ok req ->
    check_bool "id" true (req.Service.Protocol.id = Njson.Int 7);
    check_bool "op" true (req.Service.Protocol.op = Service.Protocol.Compile);
    check_bool "deadline" true (req.Service.Protocol.deadline_ms = Some 250.0)

let test_parse_recovers_id () =
  (* unknown op: the error response can still echo the request id *)
  match Service.Protocol.parse "{\"id\": \"abc\", \"op\": \"frobnicate\"}" with
  | Ok _ -> Alcotest.fail "parsed an unknown op"
  | Error (id, e) ->
    check_bool "id recovered" true (id = Njson.String "abc");
    check_bool "kind" true (e.Service.Protocol.kind = Service.Protocol.Unsupported);
    check_bool "lists known ops" true
      (Astring.String.is_infix ~affix:"compile" e.Service.Protocol.message)

let test_parse_bad_json_locates () =
  match Service.Protocol.parse "{\"op\": \"ping\"" with
  | Ok _ -> Alcotest.fail "parsed truncated JSON"
  | Error (id, e) ->
    check_bool "null id" true (id = Njson.Null);
    check_bool "bad_request" true
      (e.Service.Protocol.kind = Service.Protocol.Bad_request);
    check_bool "located" true
      (Astring.String.is_infix ~affix:"line 1" e.Service.Protocol.message)

let test_response_shapes () =
  check_string "ok response"
    "{\"id\":1,\"ok\":true,\"result\":{\"pong\":true}}"
    (Service.Protocol.response_ok ~id:(Njson.Int 1)
       (Njson.Obj [ ("pong", Njson.Bool true) ]));
  check_string "error response"
    "{\"id\":null,\"ok\":false,\"error\":{\"kind\":\"timeout\",\"message\":\"late\"}}"
    (Service.Protocol.response_error ~id:Njson.Null
       { Service.Protocol.kind = Service.Protocol.Timeout; message = "late" })

(* ---------- bounded queue ---------- *)

let test_queue_bounds () =
  let q = Service.Queue.create ~capacity:2 in
  check_bool "push 1" true (Service.Queue.try_push q 1);
  check_bool "push 2" true (Service.Queue.try_push q 2);
  check_bool "push to full queue refused" false (Service.Queue.try_push q 3);
  check_bool "pop 1" true (Service.Queue.pop q = Some 1);
  check_bool "slot freed" true (Service.Queue.try_push q 3);
  Service.Queue.close q;
  check_bool "push after close refused" false (Service.Queue.try_push q 4);
  check_bool "accepted items drain after close" true (Service.Queue.pop q = Some 2);
  check_bool "then 3" true (Service.Queue.pop q = Some 3);
  check_bool "then empty" true (Service.Queue.pop q = None)

(* ---------- deadlines ---------- *)

let test_deadline () =
  let d = Service.Deadline.after ~ms:(-1.0) in
  check_bool "negative budget is born expired" true (Service.Deadline.expired d);
  let far = Service.Deadline.after ~ms:60_000.0 in
  check_bool "a minute out is not expired" false (Service.Deadline.expired far);
  check_bool "remaining is positive" true (Service.Deadline.remaining_ms far > 0.0);
  let t0 = Service.Deadline.now_ms () in
  let t1 = Service.Deadline.now_ms () in
  check_bool "monotonic readings never decrease" true (t1 >= t0)

(* ---------- server engine (injected executors) ---------- *)

let batch ?exec ~workers lines =
  let t =
    Service.Server.create ?exec
      {
        Service.Server.default_config with
        Service.Server.workers;
        queue_depth = max 8 (List.length lines);
      }
  in
  let lock = Mutex.create () in
  let replies = ref [] in
  List.iter
    (fun line ->
      Service.Server.submit_line t
        ~reply:(fun r ->
          Mutex.lock lock;
          replies := r :: !replies;
          Mutex.unlock lock)
        line)
    lines;
  Service.Server.drain t;
  (t, List.sort compare !replies)

let test_server_end_to_end () =
  let _, replies =
    batch ~workers:2
      [ "{\"id\":1,\"op\":\"ping\"}"; "{\"id\":2,\"op\":\"devices\"}" ]
  in
  check_int "two replies" 2 (List.length replies);
  check_bool "ping pongs" true
    (List.mem "{\"id\":1,\"ok\":true,\"result\":{\"pong\":true}}" replies)

let test_server_retries_transient () =
  let failures = Atomic.make 1 in
  let calls = Atomic.make 0 in
  let exec _req =
    Atomic.incr calls;
    if Atomic.fetch_and_add failures (-1) > 0 then
      raise (Service.Protocol.Transient "flaky backend");
    Ok (Njson.Bool true)
  in
  let _, replies = batch ~exec ~workers:1 [ "{\"id\":1,\"op\":\"ping\"}" ] in
  check_int "executed twice (one retry)" 2 (Atomic.get calls);
  check_string "second attempt answered ok"
    "{\"id\":1,\"ok\":true,\"result\":true}" (List.hd replies)

let test_server_exhausts_retries () =
  let exec _req = raise (Service.Protocol.Transient "always down") in
  let _, replies = batch ~exec ~workers:1 [ "{\"id\":1,\"op\":\"ping\"}" ] in
  match Njson.of_string_result (List.hd replies) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    check_bool "not ok" true (Njson.member "ok" j = Some (Njson.Bool false));
    let kind =
      Option.bind (Njson.member "error" j) (Njson.member "kind")
    in
    check_bool "internal after retries" true (kind = Some (Njson.String "internal"))

let test_server_refuses_after_drain () =
  let t, _ = batch ~workers:1 [ "{\"id\":1,\"op\":\"ping\"}" ] in
  (* t is drained; a late request must bounce with [draining] *)
  let reply_line = ref "" in
  Service.Server.submit_line t
    ~reply:(fun r -> reply_line := r)
    "{\"id\":9,\"op\":\"ping\"}";
  check_bool "draining refusal" true
    (Astring.String.is_infix ~affix:"\"kind\":\"draining\"" !reply_line)

let test_server_stats_op () =
  let t, replies = batch ~workers:1 [ "{\"id\":1,\"op\":\"stats\"}" ] in
  ignore t;
  match Njson.of_string_result (List.hd replies) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    let result = Njson.member "result" j in
    let field name = Option.bind result (Njson.member name) in
    check_bool "schema" true
      (field "schema" = Some (Njson.String Service.Protocol.schema));
    check_bool "workers" true (field "workers" = Some (Njson.Int 1));
    check_bool "has cache stats" true (field "cache" <> None)

let test_ops_bad_device_is_typed () =
  match Service.Protocol.parse "{\"id\":1,\"op\":\"compile\",\"device\":\"warp-core\"}" with
  | Error _ -> Alcotest.fail "parse failed"
  | Ok req -> (
    match Service.Ops.execute req with
    | Ok _ -> Alcotest.fail "compiled on an unknown device"
    | Error e ->
      check_bool "bad_request" true
        (e.Service.Protocol.kind = Service.Protocol.Bad_request))

(* ---------- parameter tables ---------- *)

let execute_line line =
  match Service.Protocol.parse line with
  | Error (_, e) -> Error e
  | Ok req -> Service.Ops.execute req

(* Inputs that used to crash a worker ([internal]) or silently compile
   the defaults: each must now be a bad_request naming the field and
   its bound. *)
let test_probes_are_bad_requests () =
  List.iter
    (fun (line, needles) ->
      match execute_line line with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%s answered ok" line)
      | Error e ->
        check_bool (line ^ " is bad_request") true
          (e.Service.Protocol.kind = Service.Protocol.Bad_request);
        List.iter
          (fun needle ->
            check_bool
              (Printf.sprintf "%s: %S mentions %s" line e.Service.Protocol.message needle)
              true
              (Astring.String.is_infix ~affix:needle e.Service.Protocol.message))
          needles)
    [
      ({|{"op":"compile","qubits":0}|}, [ {|"qubits"|}; "1..54" ]);
      ({|{"op":"compile","app":"qv","qubits":1}|}, [ {|"qubits"|}; ">= 2" ]);
      ({|{"op":"compile","qubits":200}|}, [ {|"qubits"|}; "1..54" ]);
      ({|{"op":"score","count":0}|}, [ {|"count"|}; ">= 1" ]);
      ({|{"op":"score","qubits":13}|}, [ {|"qubits"|}; "1..12" ]);
      ( {|{"op":"compile","params":{"app":"qft","qubits":5,"isa":"S1"}}|},
        [ {|"params"|}; "known: isa, app, qubits" ] );
      ({|{"op":"score","params":{"app":"qft"}}|}, [ {|"params"|}; "count" ]);
      ({|{"op":"compile","apps":"qft"}|}, [ {|"apps"|}; "known:" ]);
      ({|{"op":"score","qasm":"OPENQASM 2.0;"}|}, [ {|"qasm"|}; "known:" ]);
      ( {|{"op":"compile","app":"qaoa","qubits":10,"device":"aspen8"}|},
        [ {|"qubits"|}; "<= 8"; "aspen8" ] );
      ({|{"op":"compile","app":"nope"}|}, [ {|"app"|}; "qv, qaoa, qft, fh" ]);
      ({|{"op":"compile","optimize":1}|}, [ {|"optimize"|}; "boolean" ]);
      (* the Fermi-Hubbard generator's own Invalid_argument named no field *)
      ( {|{"op":"compile","app":"fh","qubits":5}|},
        [ {|field "qubits" must be even for app "fh" (got 5)|} ] );
      ({|{"op":"score","app":"fh","qubits":7}|}, [ {|"qubits" must be even|} ]);
    ]

(* the valid requests of the @ci serve smoke, plus a score and an
   envelope deadline, still answer ok through the server *)
let test_valid_batch_still_ok () =
  let _, replies =
    batch ~workers:1
      [
        {|{"id":1,"op":"ping"}|};
        {|{"id":2,"op":"devices"}|};
        {|{"id":3,"op":"compile","app":"qaoa","qubits":4,"isa":"G2"}|};
        {|{"id":4,"op":"stats"}|};
        {|{"id":5,"op":"score","app":"qaoa","qubits":4,"isa":"G2","count":1,"deadline_ms":600000}|};
      ]
  in
  check_int "five replies" 5 (List.length replies);
  List.iter
    (fun r ->
      check_bool (r ^ " is ok") true
        (Astring.String.is_infix ~affix:{|"ok":true|} r))
    replies

(* README's Serving table lists every parameter with its default *)
let test_readme_lists_parameters () =
  let readme = In_channel.with_open_text "../README.md" In_channel.input_all in
  let rows =
    List.filter
      (fun l -> String.length l > 2 && String.sub l 0 2 = "| ")
      (String.split_on_char '\n' readme)
  in
  List.iter
    (fun (Service.Ops.P p) ->
      let default =
        match p.Service.Ops.kind with
        | Str d -> Some d
        | Int { default; _ } -> Some (string_of_int default)
        | Flag -> Some "false"
        | Text -> None
      in
      let row_prefix = Printf.sprintf "| `%s` |" p.Service.Ops.key in
      match List.find_opt (Astring.String.is_prefix ~affix:row_prefix) rows with
      | None -> Alcotest.fail (Printf.sprintf "README has no row for %s" p.Service.Ops.key)
      | Some row ->
        Option.iter
          (fun d ->
            check_bool
              (Printf.sprintf "%s row shows default %s" p.Service.Ops.key d)
              true
              (Astring.String.is_infix ~affix:(Printf.sprintf "`%s`" d) row))
          default)
    (Service.Ops.compile_params @ Service.Ops.score_params)

let () =
  Alcotest.run "service"
    [
      ( "njson-boundary",
        [
          Alcotest.test_case "of_string_result ok" `Quick test_of_string_result_ok;
          Alcotest.test_case "errors carry line/column" `Quick
            test_of_string_result_locates_errors;
          Alcotest.test_case "multi-line position" `Quick
            test_of_string_result_multiline_position;
        ] );
      ( "registry",
        [
          Alcotest.test_case "case-insensitive find" `Quick
            test_registry_case_insensitive;
          Alcotest.test_case "miss lists known names" `Quick
            test_registry_miss_lists_names;
        ] );
      ( "report",
        [ Alcotest.test_case "fresh_path suffixes" `Quick test_fresh_path ] );
      ( "protocol",
        [
          Alcotest.test_case "parse full request" `Quick test_parse_request;
          Alcotest.test_case "unknown op recovers id" `Quick test_parse_recovers_id;
          Alcotest.test_case "bad JSON located" `Quick test_parse_bad_json_locates;
          Alcotest.test_case "response shapes" `Quick test_response_shapes;
        ] );
      ( "queue",
        [ Alcotest.test_case "bounds and close" `Quick test_queue_bounds ] );
      ( "deadline", [ Alcotest.test_case "expiry" `Quick test_deadline ] );
      ( "server",
        [
          Alcotest.test_case "end to end" `Quick test_server_end_to_end;
          Alcotest.test_case "transient retry" `Quick test_server_retries_transient;
          Alcotest.test_case "retries exhausted" `Quick test_server_exhausts_retries;
          Alcotest.test_case "drain refusal" `Quick test_server_refuses_after_drain;
          Alcotest.test_case "stats op" `Quick test_server_stats_op;
          Alcotest.test_case "typed bad device" `Quick test_ops_bad_device_is_typed;
        ] );
      ( "params",
        [
          Alcotest.test_case "probes answer bad_request" `Quick
            test_probes_are_bad_requests;
          Alcotest.test_case "valid batch still ok" `Quick test_valid_batch_still_ok;
          Alcotest.test_case "README lists every parameter" `Quick
            test_readme_lists_parameters;
        ] );
    ]
