(* On-disk fidelity-curve store, schema nuop-curves/2.

   Layout:

     { "schema": "nuop-curves/2",
       "entries": [ { "key": "<make_key fingerprint>",
                      "curve": [ [layers, [params...], fd], ... ] },
                    ... ] }

   Writes go to a temporary sibling file followed by a rename, so the
   visible file is always either the old snapshot or the complete new
   one.  The loader treats the whole file as one unit: any structural
   problem yields Error (never a partial entry list), which keeps the
   warm-start semantics trivial — a bad file is exactly an empty one. *)

type curve = (int * float array * float) array

(* /2: NuOp fits with the analytic template gradient and a
   symmetry-breaking first start, so its curves differ from the
   finite-difference ones of /1 *)
let schema = "nuop-curves/2"

(* ---------- encoding ---------- *)

let curve_to_json (c : curve) =
  Njson.List
    (Array.to_list c
    |> List.map (fun (layers, params, fd) ->
           Njson.List
             [
               Njson.Int layers;
               Njson.List (Array.to_list params |> List.map (fun p -> Njson.Float p));
               Njson.Float fd;
             ]))

let entry_to_json (key, c) =
  Njson.Obj [ ("key", Njson.String key); ("curve", curve_to_json c) ]

let to_json entries =
  Njson.Obj
    [
      ("schema", Njson.String schema);
      ("entries", Njson.List (List.map entry_to_json entries));
    ]

let save path entries =
  (* compact rendering: curve files hold thousands of floats and are
     inspected through `nuop cache dump`, not by eye *)
  let s = Njson.to_string ~indent:0 (to_json entries) in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc s;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* ---------- decoding ---------- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let point_of_json = function
  | Njson.List [ Njson.Int layers; Njson.List params; fd ] ->
    let fd =
      match Njson.to_float_value fd with
      | Some f -> f
      | None -> fail "curve point fidelity is not a number"
    in
    let params =
      List.map
        (fun p ->
          match Njson.to_float_value p with
          | Some f -> f
          | None -> fail "curve point parameter is not a number")
        params
    in
    (layers, Array.of_list params, fd)
  | _ -> fail "curve point is not [layers, [params...], fd]"

let entry_of_json = function
  | Njson.Obj _ as o -> begin
    match (Njson.member "key" o, Njson.member "curve" o) with
    | Some (Njson.String key), Some (Njson.List points) ->
      (key, Array.of_list (List.map point_of_json points))
    | _ -> fail "entry is missing its key or curve"
  end
  | _ -> fail "entry is not an object"

let of_json json =
  (match Njson.member "schema" json with
  | Some (Njson.String s) when s = schema -> ()
  | Some (Njson.String s) -> fail "schema %S (expected %S)" s schema
  | _ -> fail "missing schema field (expected %S)" schema);
  match Njson.member "entries" json with
  | Some (Njson.List entries) -> List.map entry_of_json entries
  | _ -> fail "missing entries list"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match read_file path with
  | exception Sys_error m -> Error m
  | exception End_of_file -> Error "truncated file"
  | s -> (
    match Njson.of_string_result s with
    | Error m -> Error ("not valid JSON: " ^ m)
    | Ok json -> ( try Ok (of_json json) with Bad m -> Error m))
