(* csrl-check: command-line CSRL model checker over Markov reward models.

   Usage sketch:
     csrl-check --model adhoc 'P>0.5 ( (call_idle|doze) U[t<=24][r<=600] call_initiated )'
     csrl-check --file station.mrm --engine erlang:256 'P=? ( F[t<=2] down )'
     csrl-check --model adhoc --list-propositions *)

(* Every refusal — a bad flag, a model that does not load, a query with
   no procedure — is one line on stderr and exit 2.  Flushing stdout
   first keeps a header printed before the refusal ahead of it. *)
let fail fmt =
  Printf.ksprintf
    (fun message ->
      flush stdout;
      prerr_endline message;
      exit 2)
    fmt

let refusing ~model f =
  match f () with
  | v -> v
  | exception Checker.Unsupported message -> fail "unsupported: %s" message
  | exception Markov.Labeling.Unknown_proposition p ->
    fail "unknown proposition %S" p
  | exception Lang.Gcm.Runtime_error message ->
    fail "%s: runtime error: %s" model message

let parse_query text =
  match Logic.Parser.query text with
  | query -> query
  | exception Logic.Parser.Parse_error (message, pos) ->
    fail "parse error at position %d: %s" pos message

let render_query query = Format.asprintf "%a" Logic.Ast.pp_query query

let unknown_model name =
  Printf.eprintf "unknown model %S; built-in models:\n" name;
  let list = List.iter (fun (n, d) -> Printf.eprintf "  %-16s %s\n" n d) in
  list Models.Builtin.all;
  prerr_endline "interval variants:";
  list Models.Builtin.all_robust;
  exit 2

(* The per-state answers, the initial distribution's view of them, and
   the exit code: 0 when the initial distribution satisfies the formula
   (or for a value), 1 when it does not, 3 when an interval model leaves
   it open. *)
let print_verdict labeling init (verdict : Checker.verdict) =
  let cell =
    match verdict with
    | Boolean mask -> fun s -> if mask.(s) then "SATISFIED" else "violated"
    | Numeric probs -> fun s -> Printf.sprintf "%.10f" probs.{s}
    | Three_valued tris -> begin
        fun s ->
          match tris.(s) with
          | Checker.Holds -> "SATISFIED"
          | Checker.Fails -> "violated"
          | Checker.Unknown -> "UNKNOWN"
      end
    | Interval { Robust.Envelope.lo; hi } ->
      fun s -> Printf.sprintf "[%.10f, %.10f]" lo.{s} hi.{s}
  in
  for s = 0 to Markov.Labeling.n_states labeling - 1 do
    let labels = String.concat "," (Markov.Labeling.labels_of_state labeling s) in
    Printf.printf "  state %2d  [%-40s]  %s\n" s
      (if labels = "" then "-" else labels)
      (cell s)
  done;
  let lo, hi = Batch.initial_value ~init verdict in
  match verdict with
  | Boolean _ ->
    Printf.printf "initial distribution satisfies the formula with mass %g\n"
      lo;
    if lo < 1.0 then 1 else 0
  | Three_valued _ ->
    Printf.printf
      "initial distribution satisfies the formula with mass in [%g, %g]\n" lo
      hi;
    if hi < 1.0 then 1 else if lo < 1.0 then 3 else 0
  | Numeric _ ->
    Printf.printf "value from the initial distribution: %.10f\n" lo;
    0
  | Interval _ ->
    Printf.printf "value from the initial distribution: [%.10f, %.10f]\n" lo
      hi;
    0

let interval_shape imrm =
  Printf.sprintf "%d states, %d rate intervals, max width %g"
    (Robust.Imrm.n_states imrm)
    (Robust.Imrm.n_transitions imrm)
    (Robust.Imrm.max_width imrm)

let print_propositions labeling =
  List.iter
    (fun p ->
      let mask = Markov.Labeling.sat labeling p in
      let count =
        Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask
      in
      Printf.printf "  %-24s (%d states)\n" p count)
    (Markov.Labeling.propositions labeling)

let print_info mrm labeling init =
  let chain = Markov.Mrm.ctmc mrm in
  let n = Markov.Mrm.n_states mrm in
  Printf.printf "states:        %d\n" n;
  Printf.printf "transitions:   %d\n" (Linalg.Csr.nnz (Markov.Ctmc.rates chain));
  Printf.printf "max exit rate: %g\n" (Markov.Ctmc.max_exit_rate chain);
  let levels =
    Markov.Mrm.reward_levels mrm |> Array.to_list
    |> List.map (Printf.sprintf "%g") |> String.concat ", "
  in
  Printf.printf "reward levels: {%s}\n" levels;
  Printf.printf "impulses:      %s\n"
    (if Markov.Mrm.has_impulses mrm then
       Printf.sprintf "yes (max %g)" (Markov.Mrm.max_impulse mrm)
     else "no");
  let g = Markov.Ctmc.graph chain in
  let scc = Graph.Scc.compute g in
  let bottoms = Graph.Scc.bottom_components g scc in
  Printf.printf "SCCs:          %d (%d bottom)\n" scc.Graph.Scc.count
    (List.length bottoms);
  Printf.printf "propositions:  %s\n"
    (String.concat ", " (Markov.Labeling.propositions labeling));
  let pi = Markov.Steady.distribution chain ~init in
  Printf.printf "long-run distribution from the initial distribution:\n";
  Linalg.Vec.iteri
    (fun s p ->
      if p > 1e-12 then
        Printf.printf "  state %2d  [%s]  %.8f\n" s
          (String.concat "," (Markov.Labeling.labels_of_state labeling s))
          p)
    pi;
  Printf.printf "long-run reward rate: %g\n"
    (Markov.Expected_reward.steady_rate mrm ~init)

(* bechamel's monotonic clock returns nanoseconds. *)
let monotonic_seconds () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* ------------------------------------------------------------------ *)
(* Batch mode: a JSON file of queries, answered with shared caches.    *)

let batch_usage =
  "expected {\"queries\": [...]} where each element is a query string or \
   an object {\"query\": \"...\", \"name\": \"...\"}"

let parse_batch_file path =
  let fail message = fail "batch file %s: %s" path message in
  let text =
    if path = "-" then In_channel.input_all stdin
    else
      try In_channel.with_open_text path In_channel.input_all
      with Sys_error message -> fail message
  in
  let document =
    try Io.Json.of_string text
    with Io.Json.Parse_error (message, offset) ->
      fail (Printf.sprintf "JSON parse error at offset %d: %s" offset message)
  in
  let items =
    match Io.Json.member "queries" document with
    | Some (Io.Json.List items) when items <> [] -> items
    | Some (Io.Json.List []) -> fail ("empty \"queries\" list; " ^ batch_usage)
    | _ -> fail batch_usage
  in
  List.mapi
    (fun i item ->
      let name, text =
        match item with
        | Io.Json.String text -> (Printf.sprintf "q%d" i, text)
        | Io.Json.Object _ as obj -> begin
            let name =
              match Option.bind (Io.Json.member "name" obj) Io.Json.to_text with
              | Some n -> n
              | None -> Printf.sprintf "q%d" i
            in
            match Option.bind (Io.Json.member "query" obj) Io.Json.to_text with
            | Some text -> (name, text)
            | None ->
              fail (Printf.sprintf "queries[%d] has no \"query\" string" i)
          end
        | _ -> fail (Printf.sprintf "queries[%d]: %s" i batch_usage)
      in
      match Logic.Parser.query text with
      | query -> (name, query)
      | exception Logic.Parser.Parse_error (message, pos) ->
        fail
          (Printf.sprintf "query %s: parse error at position %d: %s" name pos
             message))
    items

(* The CLI's frontier object: the sweep's bounds, then its evaluation
   count and staircase. *)
let frontier_json (f : Batch.Frontier.result) =
  Batch.Frontier.bounds_json f
  @ [ ("evaluations",
       Io.Json.Number (float_of_int f.Batch.Frontier.evaluations));
      ("points", Batch.Frontier.points_json f.Batch.Frontier.points) ]

(* The cache section: the memo's layers plus the process-wide Fox-Glynn
   window cache as a delta over the run. *)
let cache_json memo fox_glynn_since =
  ("cache", Batch.caches_json (Batch.cache_counters memo ~fox_glynn_since))

let print_json document =
  print_string (Io.Json.to_string (Io.Json.Object document));
  print_newline ()

(* Frontier entries run after the plain batch, sequentially, over the
   same memo — their probes reuse (and extend) the shared caches. *)
let run_batch ~model ~pool ?telemetry ~engine ~jobs ctx init path =
  let batch = parse_batch_file path in
  let memo = Checker.create_memo () in
  let fg_before = Numerics.Fox_glynn.cache_counters () in
  let is_frontier = function Logic.Ast.Frontier_query _ -> true | _ -> false in
  let plain = List.filter (fun (_, q) -> not (is_frontier q)) batch in
  let verdicts =
    refusing ~model (fun () ->
        Batch.run ~pool ?telemetry ~memo ctx (List.map snd plain))
  in
  let remaining = ref verdicts in
  let result (name, query) =
    let fields =
      if is_frontier query then
        ("kind", Io.Json.String "frontier")
        :: frontier_json
             (refusing ~model (fun () ->
                  Batch.Frontier.run ?telemetry ~memo ctx ~init query))
      else
        match !remaining with
        | v :: rest ->
          remaining := rest;
          Batch.verdict_json ~init v
        | [] -> failwith "csrl-check: batch verdicts out of sync"
    in
    Io.Json.Object
      (("name", Io.Json.String name)
      :: ("query", Io.Json.String (render_query query))
      :: fields)
  in
  let results = List.map result batch in
  print_json
    [ ("tool", Io.Json.String "csrl-check");
      ("mode", Io.Json.String "batch");
      ("engine", Io.Json.String engine);
      ("jobs", Io.Json.Number (float_of_int jobs));
      ("queries", Io.Json.Number (float_of_int (List.length batch)));
      ("results", Io.Json.List results);
      cache_json memo fg_before ]

(* ------------------------------------------------------------------ *)
(* One checking path for every model kind: resolve the source, decide
   what a .gcm program becomes under the engine, then check the point,
   interval or program context through the Checker.                     *)

let run model_name file engine_text epsilon jobs trace stats list_props info
    lump batch_file frontier_fmt rate_drift imrm_file formula_text =
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | Some _ -> fail "--jobs needs a positive count"
    | None -> 1
  in
  if not (epsilon > 0.0 && epsilon < 1.0) then
    fail "--epsilon needs a value in (0,1)";
  (match rate_drift with
   | Some pct when not (pct >= 0.0 && pct < 100.0) ->
     fail "--rate-drift needs a percentage in [0, 100)"
   | _ -> ());
  if imrm_file <> None && (file <> None || rate_drift <> None) then
    fail "--imrm cannot be combined with --file or --rate-drift";
  (match frontier_fmt with
   | None | Some ("json" | "csv") -> ()
   | Some other -> fail "--frontier needs \"json\" or \"csv\", not %S" other);
  if frontier_fmt <> None && batch_file <> None then
    fail "--frontier cannot be combined with --batch";
  if batch_file <> None && formula_text <> None then
    fail "--batch cannot be combined with a positional formula";
  let engine =
    match Perf.Engine.of_string engine_text with
    | Ok e -> e
    | Error message -> fail "%s" message
  in
  let file =
    match file with
    | None when Filename.check_suffix model_name ".gcm" -> Some model_name
    | f -> f
  in
  let source =
    match
      Models.Source.resolve ~engine ?file ?drift:rate_drift ?imrm:imrm_file
        model_name
    with
    | Ok source -> source
    | Error (Models.Source.Unknown_model name) -> unknown_model name
    | Error (Models.Source.Invalid message) -> fail "%s" message
  in
  let label = Option.value file ~default:model_name in
  let telemetry =
    if trace <> None || stats then
      Some (Telemetry.create ~clock:monotonic_seconds ())
    else None
  in
  (* After the answer: the pool's gauges, the --trace document and the
     --stats dump. *)
  let finish ?pool fields =
    Option.iter
      (fun tel ->
        Option.iter (Io.Trace.record_pool_stats tel) pool;
        Option.iter
          (fun path ->
            let document =
              Io.Json.Object
                ((("tool", Io.Json.String "csrl-check") :: fields)
                @ [ ("jobs", Io.Json.Number (float_of_int jobs));
                    ("telemetry", Io.Trace.to_json tel) ])
            in
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Io.Json.to_string document);
                output_char oc '\n'))
          trace;
        if stats then Io.Trace.print_stats stdout tel)
      telemetry
  in
  let spec = Format.asprintf "%a" Perf.Engine.pp_spec engine in
  let check (source : Models.Source.t) =
    if list_props then begin
      (match source with
       | Explicit { mrm; labeling; _ } ->
         Printf.printf "model: %d states, %d transitions\n"
           (Markov.Mrm.n_states mrm)
           (Linalg.Csr.nnz (Markov.Ctmc.rates (Markov.Mrm.ctmc mrm)));
         print_propositions labeling
       | Interval { imrm; labeling; _ } ->
         Printf.printf "interval model: %s\n" (interval_shape imrm);
         print_propositions labeling
       | Program { path; succ; _ } ->
         Printf.printf "symbolic model: %s (state space explored on demand)\n"
           path;
         List.iter (Printf.printf "  %s\n") succ.Explore.Succ.propositions);
      0
    end
    else begin
      Parallel.Pool.with_pool ~jobs @@ fun pool ->
      (* Busy-time accounting costs two clock reads per chunk, so it is
         only switched on for --trace, keeping --stats output
         deterministic. *)
      (if trace <> None then
         Option.iter
           (fun tel -> Parallel.Pool.instrument pool (Telemetry.clock tel))
           telemetry);
      let ctx, init = Batch.context ~engine ~epsilon ~pool ?telemetry source in
      let engine_label =
        match source with
        | Interval _ -> "robust-envelope over " ^ spec
        | Explicit _ | Program _ -> spec
      in
      let finish_as mode fields =
        finish ~pool
          (("mode", Io.Json.String mode)
          :: ("engine", Io.Json.String engine_label) :: fields)
      in
      match batch_file, Option.map parse_query formula_text with
      | Some path, _ ->
        run_batch ~model:label ~pool ?telemetry ~engine:spec ~jobs ctx init
          path;
        finish_as "batch" [];
        0
      | None, None ->
        fail
          "no formula given (pass one, or --batch FILE, or \
           --list-propositions)"
      | None, Some (Logic.Ast.Frontier_query _ as query) ->
        let memo = Checker.create_memo () in
        let fg_before = Numerics.Fox_glynn.cache_counters () in
        let f =
          refusing ~model:label (fun () ->
              Batch.Frontier.run ?telemetry ~memo ctx ~init query)
        in
        (match frontier_fmt with
         | Some "csv" ->
           let row (p : Batch.Frontier.point) =
             List.map (Printf.sprintf "%.17g")
               [ p.Batch.Frontier.t; p.Batch.Frontier.r;
                 p.Batch.Frontier.probability ]
           in
           print_string
             (Io.Csv.render ~header:[ "t"; "r"; "probability" ]
                (List.map row f.Batch.Frontier.points))
         | _ ->
           print_json
             ([ ("tool", Io.Json.String "csrl-check");
                ("mode", Io.Json.String "frontier");
                ("engine", Io.Json.String spec);
                ("jobs", Io.Json.Number (float_of_int jobs));
                ("query", Io.Json.String (render_query query)) ]
             @ frontier_json f
             @ [ cache_json memo fg_before ]));
        finish_as "frontier" [ ("query", Io.Json.String (render_query query)) ];
        0
      | None, Some _ when frontier_fmt <> None ->
        fail
          "--frontier needs a frontier query, e.g. 'frontier[20] P>=0.5 ( a \
           U[t<=10][r<=50] b )'"
      | None, Some query ->
        Format.printf "query:  %a@." Logic.Ast.pp_query query;
        Printf.printf "engine: %s\n" engine_label;
        (match source with
         | Interval { imrm; _ } ->
           Printf.printf "model:  %s\n" (interval_shape imrm)
         | Explicit _ | Program _ -> ());
        let verdict =
          refusing ~model:label (fun () -> Checker.eval_query ctx query)
        in
        let code = print_verdict (Checker.labeling ctx) init verdict in
        finish_as "check" [ ("query", Io.Json.String (render_query query)) ];
        code
    end
  in
  let explicit (mrm, labeling, init) =
    let mrm, labeling, init =
      if lump then begin
        let l = Markov.Lumping.compute mrm labeling in
        Printf.printf "lumped: %d states -> %d blocks\n"
          (Array.length l.Markov.Lumping.block_of_state)
          l.Markov.Lumping.n_blocks;
        (l.Markov.Lumping.quotient, l.Markov.Lumping.labeling,
         Markov.Lumping.lift l init)
      end
      else (mrm, labeling, init)
    in
    if info then begin
      print_info mrm labeling init;
      0
    end
    else check (Explicit { mrm; labeling; init })
  in
  match source with
  | Explicit { mrm; labeling; init } -> explicit (mrm, labeling, init)
  | Interval _ when lump || info || frontier_fmt <> None ->
    fail
      "--lump, --info and --frontier need a point-valued model; interval \
       models answer P queries, state formulas and --batch"
  | Program _ when lump || info || frontier_fmt <> None ->
    fail
      "--info, --lump and --frontier need an explicit state space; rerun \
       with an explicit engine (e.g. --engine sericola) to materialise the \
       .gcm model"
  | Interval _ | Program _ -> check source

open Cmdliner

let model_arg =
  let doc =
    "Built-in model to check (adhoc, adhoc-srn, multiprocessor, cluster), or \
     a path to a .gcm guarded-command program (checked on the fly with \
     --engine windowed, materialised otherwise)."
  in
  Arg.(value & opt string "adhoc" & info [ "m"; "model" ] ~docv:"NAME" ~doc)

let file_arg =
  let doc =
    "Load the model from a .mrm file (explicit) or .gcm file \
     (guarded-command program) instead of a built-in."
  in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"PATH" ~doc)

let engine_arg =
  let doc =
    "Numerical engine for time- and reward-bounded until: sericola[:eps], \
     erlang[:phases], discretise[:step] or windowed[:eps] (sliding-window \
     truncated uniformisation with a certified error bound; the only \
     engine that checks .gcm models without enumerating their state \
     space)."
  in
  Arg.(value & opt string "sericola" & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

let epsilon_arg =
  let doc =
    "Accuracy of transient analyses (must be in (0,1)).  A .gcm program \
     under --engine windowed[:eps] is certified at the engine's eps."
  in
  Arg.(value & opt float 1e-9 & info [ "epsilon" ] ~docv:"EPS" ~doc)

let jobs_arg =
  let doc =
    "Run the numerical kernels on $(docv) domains (default 1: the exact \
     sequential code).  Results with $(docv) >= 2 can differ from the \
     sequential run by floating-point rounding only."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Write a JSON trace of the run to $(docv): convergence counters and \
     gauges of every numerical procedure used (Fox-Glynn truncation \
     points, uniformisation iterations, Sericola's achieved epsilon, \
     ...), timed spans, and pool utilisation."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_arg =
  let doc =
    "Print the run's convergence counters and gauges after the verdict \
     (a deterministic subset of --trace: no timings)."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let list_props_arg =
  let doc = "List the model's atomic propositions and exit." in
  Arg.(value & flag & info [ "l"; "list-propositions" ] ~doc)

let info_arg =
  let doc =
    "Print model statistics (size, reward levels, BSCCs, long-run \
     behaviour) and exit."
  in
  Arg.(value & flag & info [ "i"; "info" ] ~doc)

let lump_arg =
  let doc =
    "Reduce the model by its ordinary-lumpability quotient before checking \
     (states shown are then blocks)."
  in
  Arg.(value & flag & info [ "lump" ] ~doc)

let batch_arg =
  let doc =
    "Evaluate a batch of queries from a JSON file ({\"queries\": [...]}, \
     each element a query string or {\"query\": ..., \"name\": ...}) over \
     one shared checking context.  Work common to the queries — Sat-sets, \
     Theorem 1 reductions, solved until-vectors, Fox-Glynn windows — is \
     computed once; answers are bit-identical to single-query runs.  \
     Results are printed as one JSON document with per-cache hit \
     statistics.  Pass $(b,-) to read the JSON document from standard \
     input (for piping without temp files)."
  in
  Arg.(value & opt (some string) None & info [ "b"; "batch" ] ~docv:"FILE" ~doc)

let frontier_arg =
  let doc =
    "Output format for a frontier query ($(b,json) or $(b,csv)).  A \
     frontier query 'frontier[N] P>=p ( phi U[t<=T][r<=R] psi )' sweeps \
     the Pareto frontier {(t, r) : P(phi U[<=t][<=r] psi) >= p} on an \
     N-point time grid by monotonicity-guided bisection over the reward \
     axis, reusing the warm caches across probes; every emitted point is \
     bit-identical to an independent single-query solve of the same \
     bounds.  Frontier queries default to JSON output when this flag is \
     omitted."
  in
  Arg.(value & opt (some string) None & info [ "frontier" ] ~docv:"FORMAT" ~doc)

let rate_drift_arg =
  let doc =
    "Check robustly over an interval-valued model: widen every rate and \
     reward of the loaded model by a relative +/-$(docv)% drift and answer \
     with guaranteed lower/upper envelopes over the whole uncertainty set \
     (three-valued verdicts for P-operator formulas — a state is UNKNOWN \
     when the envelope straddles the probability bound).  $(docv) must lie \
     in [0, 100); 0 gives the zero-width interval model, whose answers are \
     bit-identical to the precise run.  Built-in interval variants are \
     also available directly as models named $(b,<name>-drift[:PCT])."
  in
  Arg.(value & opt (some float) None & info [ "rate-drift" ] ~docv:"PCT" ~doc)

let imrm_arg =
  let doc =
    "Load an interval-valued model from a JSON file ({\"states\": N, \
     \"transitions\": [[src, dst, lo, hi] | [src, dst, rate]], \
     \"rewards\": [[lo, hi] | rate per state], optional \"labels\" and \
     \"init\"}) and check robustly over it.  Cannot be combined with \
     --file or --rate-drift."
  in
  Arg.(value & opt (some string) None & info [ "imrm" ] ~docv:"FILE" ~doc)

let formula_arg =
  let doc =
    "The CSRL formula or query, e.g. 'P>0.5 ( a U[t<=24][r<=600] b )', \
     'P=? ( F[t<=2] down )' or 'frontier[20] P>=0.5 ( a U[t<=24][r<=600] \
     b )'."
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FORMULA" ~doc)

let cmd =
  let doc = "model check CSRL performability properties over Markov reward models" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Implements the model checking procedures of Haverkort, Cloth, \
         Hermanns, Katoen & Baier, 'Model Checking Performability \
         Properties' (DSN 2002): unbounded, time-bounded, reward-bounded \
         and time-and-reward-bounded until operators over finite Markov \
         reward models, the latter via a pseudo-Erlang approximation, \
         Tijms-Veldman discretisation or Sericola's occupation-time \
         algorithm." ]
  in
  Cmd.v
    (Cmd.info "csrl-check" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ model_arg $ file_arg $ engine_arg $ epsilon_arg $ jobs_arg
      $ trace_arg $ stats_arg $ list_props_arg $ info_arg $ lump_arg
      $ batch_arg $ frontier_arg $ rate_drift_arg $ imrm_arg $ formula_arg)

let () = exit (Cmd.eval' cmd)
