(* Table II: the instruction sets studied. *)

let doc ?cfg:(_ = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b "Table II: instruction sets studied";
  let row isa =
    [
      Isa.Set.name isa;
      string_of_int (Isa.Set.size isa);
      String.concat ", "
        (List.map Gates.Gate_type.name (Isa.Set.gate_types isa));
    ]
  in
  Report.Builder.table b
    ~header:[ "set"; "#2Q types"; "gate types" ]
    (List.map row Isa.Set.all);
  Report.Builder.doc b
