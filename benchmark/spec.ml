(* BENCHMARK.json as the smoke test and compare.exe read it: the
   workload names and each metric's unit, direction and bound. *)

type metric = {
  name : string;
  unit_ : string;
  lower_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let read path =
  let json =
    Io.Json.of_string (In_channel.with_open_text path In_channel.input_all)
  in
  let text k j = Option.bind (Io.Json.member k j) Io.Json.to_text in
  let list key =
    match Io.Json.member key json with Some (Io.Json.List l) -> l | _ -> []
  in
  let metrics key =
    List.filter_map
      (fun m ->
        match (text "name" m, text "unit" m, text "better" m) with
        | Some name, Some unit_, Some better ->
          Some
            { name; unit_; lower_better = better = "lower";
              bound = Option.bind (Io.Json.member "bound" m) Io.Json.to_float }
        | _ -> None)
      (list key)
  in
  { workloads = List.filter_map (text "name") (list "workloads");
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer" }
