(* The repository benchmark.

     run.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     run.exe [--seed N] [--seconds S] [--trace 0|1]   # every workload
     run.exe --smoke BENCHMARK.json                   # tiny runs + checks

   One workload runs in this process and prints, as the last line of
   standard output, one JSON object: whether every answer was correct,
   the ops attempted and failed, and the metrics — the end-to-end ones
   with --trace 0, the per-layer ones that the benchmark file (--spec
   FILE, default BENCHMARK.json) lists with --trace 1.  Without
   --workload the program re-executes itself once per workload, so each
   workload gets a fresh process, and prints one table.  --seconds 0
   runs each workload's minimum op count (the smoke setting).  Exits 1
   when an answer is wrong. *)

type workload = {
  name : string;
  run : seed:int -> seconds:float -> Harness.outcome;
  trace : seed:int -> ops:int -> Spans.t -> Harness.outcome;
  traced_ops : int;  (** ops in the traced run (fixed: counters repeat) *)
  smoke_ops : int;   (** ops in the traced run at --seconds 0 *)
}

let workloads =
  [ { name = "check-cold"; run = Check_cold.run; trace = Check_cold.trace;
      traced_ops = 40; smoke_ops = 4 };
    { name = "batch-warm"; run = Batch_warm.run; trace = Batch_warm.trace;
      traced_ops = 30; smoke_ops = 1 };
    { name = "serve-open"; run = Serve_open.run; trace = Serve_open.trace;
      traced_ops = 400; smoke_ops = 20 };
    { name = "gcm-window"; run = Gcm_window.run; trace = Gcm_window.trace;
      traced_ops = 20; smoke_ops = 2 };
    { name = "robust-drift"; run = Robust_drift.run;
      trace = Robust_drift.trace; traced_ops = 300; smoke_ops = 20 } ]

let result_json (o : Harness.outcome) =
  Io.Json.Object
    [ ("correct", Io.Json.Bool (Harness.correct o));
      ("attempted", Io.Json.Number (float_of_int o.attempted));
      ("failed", Io.Json.Number (float_of_int o.failed));
      ("metrics",
       Io.Json.Object
         (List.map
            (fun (m : Harness.metric) ->
              ( m.name,
                Io.Json.Object
                  [ ("value", Io.Json.Number m.value);
                    ("unit", Io.Json.String m.unit_) ] ))
            o.metrics)) ]

(* Complete the traced run's metrics to the per-layer list of the
   benchmark file, in its order.  A workload that does not call a layer
   reports it as 0 — the layer costs that workload nothing. *)
let complete (spec : Spec.t) (o : Harness.outcome) =
  let listed name =
    List.find_opt (fun (m : Spec.metric) -> m.name = name) spec.per_layer
  in
  List.iter
    (fun (m : Harness.metric) ->
      if listed m.name = None then
        failwith ("metric missing from the benchmark file: " ^ m.name))
    o.metrics;
  let metrics =
    List.map
      (fun (s : Spec.metric) ->
        match
          List.find_opt (fun (m : Harness.metric) -> m.name = s.name) o.metrics
        with
        | Some m -> m
        | None -> Harness.metric s.name s.unit_ 0.0)
      spec.per_layer
  in
  { o with metrics }

let run_one w ~spec ~seed ~seconds ~trace =
  let o =
    if not trace then w.run ~seed ~seconds
    else begin
      let spec = Spec.read spec in
      let tr = Spans.create () in
      let ops = if seconds > 0.0 then w.traced_ops else w.smoke_ops in
      let o = w.trace ~seed ~ops tr in
      Spans.print_table ~workload:w.name tr;
      let path =
        Harness.out_file (Printf.sprintf "trace-%s-%d.json" w.name seed)
      in
      Spans.write tr path;
      Printf.printf "spans written to %s\n" path;
      complete spec o
    end
  in
  List.iter
    (fun (what, ok) -> if not ok then Printf.printf "CHECK FAILED: %s\n" what)
    o.checks;
  print_endline (Io.Json.to_string (result_json o));
  if not (Harness.correct o) then exit 1

(* ------------------------------------------------------------------ *)
(* Re-executing this program once per workload.                        *)

let child_result args =
  let out_read, out_write = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin out_write Unix.stderr
  in
  Unix.close out_write;
  let text = In_channel.input_all (Unix.in_channel_of_descr out_read) in
  Unix.close out_read;
  let _, status = Unix.waitpid [] pid in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  List.iter print_endline
    (List.filteri (fun i _ -> i < List.length lines - 1) lines);
  let last = match List.rev lines with l :: _ -> Some l | [] -> None in
  let json =
    Option.bind last (fun l ->
        match Io.Json.of_string l with
        | j -> Some j
        | exception Io.Json.Parse_error _ -> None)
  in
  (status = Unix.WEXITED 0, json)

let metrics_of json =
  match Io.Json.member "metrics" json with
  | Some (Io.Json.Object ms) ->
    List.map
      (fun (name, m) ->
        ( name,
          Option.bind (Io.Json.member "value" m) Io.Json.to_float,
          Option.bind (Io.Json.member "unit" m) Io.Json.to_text ))
      ms
  | _ -> []

let child_args w ~spec ~seed ~seconds ~trace =
  [ "--workload"; w.name; "--spec"; spec; "--seed"; string_of_int seed;
    "--seconds"; Printf.sprintf "%g" seconds; "--trace";
    (if trace then "1" else "0") ]

let run_all ~spec ~seed ~seconds ~trace =
  let ok = ref true in
  let rows =
    List.map
      (fun w ->
        let exited, json =
          child_result (child_args w ~spec ~seed ~seconds ~trace)
        in
        if not exited then ok := false;
        (w.name, Option.map metrics_of json))
      workloads
  in
  print_endline "";
  List.iter
    (fun (name, metrics) ->
      match metrics with
      | None -> Printf.printf "%s: no result\n" name
      | Some ms ->
        Printf.printf "%s\n" name;
        List.iter
          (fun (m, v, u) ->
            Printf.printf "  %-28s %16.6g %s\n" m
              (Option.value v ~default:nan)
              (Option.value u ~default:"?"))
          ms)
    rows;
  if not !ok then exit 1

(* The smoke test: every workload at its minimum op count, untraced and
   traced; each run must be correct and print exactly the metrics the
   benchmark file names, with their units.  No timing is checked. *)
let smoke spec_path =
  let spec = Spec.read spec_path in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if spec.workloads <> List.map (fun w -> w.name) workloads then
    problem "workloads in %s differ from run.exe's" spec_path;
  let check w ~trace (expected : Spec.metric list) =
    let what = Printf.sprintf "%s --trace %d" w.name (Bool.to_int trace) in
    match
      child_result (child_args w ~spec:spec_path ~seed:1 ~seconds:0.0 ~trace)
    with
    | _, None -> problem "%s: no result line" what
    | exited, Some json ->
      if not exited then problem "%s: non-zero exit" what;
      if Io.Json.member "correct" json <> Some (Io.Json.Bool true) then
        problem "%s: incorrect" what;
      if Io.Json.member "failed" json <> Some (Io.Json.Number 0.0) then
        problem "%s: failed ops" what;
      let got = List.map (fun (n, _, u) -> (n, u)) (metrics_of json) in
      List.iter
        (fun (m : Spec.metric) ->
          match List.assoc_opt m.name got with
          | Some (Some u) when u = m.unit_ -> ()
          | Some _ -> problem "%s: metric %s has the wrong unit" what m.name
          | None -> problem "%s: metric %s missing" what m.name)
        expected;
      List.iter
        (fun (n, _) ->
          if not (List.exists (fun (m : Spec.metric) -> m.name = n) expected)
          then problem "%s: metric %s not in %s" what n spec_path)
        got
  in
  List.iter
    (fun w ->
      check w ~trace:false spec.end_to_end;
      check w ~trace:true spec.per_layer)
    workloads;
  match List.rev !problems with
  | [] -> print_endline "benchmark smoke: ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("benchmark smoke: " ^ p)) ps;
    exit 1

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20.0
  and trace = ref false and spec = ref "BENCHMARK.json"
  and smoke_spec = ref None in
  let usage =
    "run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--spec FILE]"
  in
  Arg.parse
    [ ("--workload", Arg.String (fun s -> workload := Some s),
       "NAME one workload");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 20)");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1 per-layer run");
      ("--spec", Arg.Set_string spec,
       "FILE the benchmark file naming the per-layer metrics \
        (default BENCHMARK.json)");
      ("--smoke", Arg.String (fun s -> smoke_spec := Some s),
       "FILE smoke-test every workload against the benchmark file") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match (!smoke_spec, !workload) with
  | Some spec, _ -> smoke spec
  | None, None ->
    run_all ~spec:!spec ~seed:!seed ~seconds:!seconds ~trace:!trace
  | None, Some name -> (
      match List.find_opt (fun w -> w.name = name) workloads with
      | Some w ->
        run_one w ~spec:!spec ~seed:!seed ~seconds:!seconds ~trace:!trace
      | None ->
        Printf.eprintf "unknown workload %s (known: %s)\n" name
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2)
