(* Compare two sets of benchmark results.

     compare.exe [--spec BENCHMARK.json] PARENT_DIR CHANGE_DIR

   Each directory holds result files named WORKLOAD.ANYTHING.json whose
   last line is the JSON object run.exe prints (for instance
   check-cold.3.json for seed 3).  Files with the same name in both
   directories form a pair.  For every (workload, metric) the table
   shows each side's median and quartiles, the share of pairs the change
   wins (ties count for neither), and a verdict:

   - improved: the change wins at least 9 of 10 pairs and the medians
     differ by more than the parent's own quartile distance;
   - worse: the change's median is worse than the parent's by more than
     the metric's bound (for a metric without a bound: the parent wins
     at least 9 of 10 pairs and the medians differ by more than that
     distance);
   - unresolved: the parent's quartile distance is wider than the bound,
     and not every change run beats every parent run — the runs cannot
     tell the two apart;
   - unchanged: otherwise.

   Exits 1 when any metric with a bound is worse. *)

(* The last line of a result file. *)
let read_result path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let lines = String.split_on_char '\n' text in
  match List.rev (List.filter (fun l -> String.trim l <> "") lines) with
  | last :: _ -> Io.Json.of_string last
  | [] -> failwith (path ^ ": empty")

(* (file name, (workload, metric values)) for every result file of
   [dir]. *)
let results dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f ->
         let workload =
           match String.index_opt f '.' with
           | Some i -> String.sub f 0 i
           | None -> f
         in
         let values =
           match
             Io.Json.member "metrics" (read_result (Filename.concat dir f))
           with
           | Some (Io.Json.Object ms) ->
             List.filter_map
               (fun (name, m) ->
                 Option.map (fun v -> (name, v))
                   (Option.bind (Io.Json.member "value" m) Io.Json.to_float))
               ms
           | _ -> []
         in
         (f, (workload, values)))

let quartiles xs =
  let s = Harness.sorted_of xs in
  Harness.(percentile s 0.25, percentile s 0.5, percentile s 0.75)

let verdict (m : Spec.metric) ~parent ~change ~pairs =
  let better a b = if m.lower_better then a < b else a > b in
  let p1, pm, p3 = quartiles parent and _, cm, _ = quartiles change in
  let n = float_of_int (max 1 (List.length pairs)) in
  let share f = float_of_int (List.length (List.filter f pairs)) /. n in
  let wins = share (fun (p, c) -> better c p)
  and losses = share (fun (p, c) -> better p c) in
  let spread = p3 -. p1 in
  let separated = Float.abs (cm -. pm) > spread in
  let worse_by =
    (if m.lower_better then cm -. pm else pm -. cm) /. Float.abs pm
  in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change
  in
  let v =
    if wins >= 0.9 && separated then "improved"
    else
      match m.bound with
      | Some bound when worse_by > bound -> "worse"
      | Some bound when spread /. Float.abs pm > bound && not all_better ->
        "unresolved"
      | Some _ -> "unchanged"
      | None ->
        if losses >= 0.9 && separated then "worse"
        else if pm = cm && spread = 0.0 then "unchanged"
        else "unresolved"
  in
  (v, wins)

let () =
  let spec = ref "BENCHMARK.json" and dirs = ref [] in
  Arg.parse
    [ ("--spec", Arg.Set_string spec,
       "FILE benchmark definition (default BENCHMARK.json)") ]
    (fun d -> dirs := !dirs @ [ d ])
    "compare.exe [--spec BENCHMARK.json] PARENT_DIR CHANGE_DIR";
  let parent_dir, change_dir =
    match !dirs with
    | [ p; c ] -> (p, c)
    | _ ->
      prerr_endline "compare.exe: need PARENT_DIR and CHANGE_DIR";
      exit 2
  in
  let metrics =
    let spec = Spec.read !spec in
    spec.end_to_end @ spec.per_layer
  in
  let parent = results parent_dir and change = results change_dir in
  let workloads =
    List.sort_uniq compare (List.map (fun (_, (w, _)) -> w) (parent @ change))
  in
  let regressions = ref 0 in
  Printf.printf "%-13s %-26s %-28s %-28s %7s %5s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "delta" "wins" "verdict";
  List.iter
    (fun w ->
      let side =
        List.filter_map (fun (f, (w', vs)) ->
            if w' = w then Some (f, vs) else None)
      in
      let ps = side parent and cs = side change in
      List.iter
        (fun (m : Spec.metric) ->
          let value vs = List.assoc_opt m.name vs in
          let pv = List.filter_map (fun (_, vs) -> value vs) ps
          and cv = List.filter_map (fun (_, vs) -> value vs) cs in
          let pairs =
            List.filter_map
              (fun (f, vs) ->
                match (value vs, Option.bind (List.assoc_opt f cs) value) with
                | Some p, Some c -> Some (p, c)
                | _ -> None)
              ps
          in
          if pv <> [] && cv <> [] then begin
            let v, wins = verdict m ~parent:pv ~change:cv ~pairs in
            let q1, qm, q3 = quartiles pv and c1, cm, c3 = quartiles cv in
            if v = "worse" && m.bound <> None then incr regressions;
            Printf.printf
              "%-13s %-26s %9.4g [%.4g, %.4g] %9.4g [%.4g, %.4g] %+6.1f%% \
               %4.0f%%  %s (%d vs %d runs, %s)\n"
              w m.name qm q1 q3 cm c1 c3
              (if qm = 0.0 then 0.0 else 100.0 *. (cm -. qm) /. Float.abs qm)
              (100.0 *. wins) v (List.length pv) (List.length cv) m.unit_
          end)
        metrics)
    workloads;
  if !regressions > 0 then begin
    Printf.printf "%d metric(s) worse than their bound\n" !regressions;
    exit 1
  end
