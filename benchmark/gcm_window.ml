(* gcm-window: the .gcm grid with at least 10^6 reachable states,
   compiled once; each op is a cold [Perf.Symbolic.eval] on a fresh
   handle, so state discovery and interning are timed with the window
   sweep.  Explore's interning, successor generation and window do
   almost all of the work; the checker, reduction and Sericola are
   bypassed.  The frontier sits at x + y >= 200, far enough that the
   window keeps growing over the whole horizon; the seed draws the
   horizon T in [24, 48], from `bench explore`'s T = 24 up to twice
   that. *)

let epsilon = 1e-9

let source =
  Models.Gcm_examples.grid ~frontier_at:200
    ~n:(Models.Gcm_examples.grid_n_for_states 1_000_000)
    ()

let compile () =
  match Lang.Gcm.of_string source with
  | Ok succ -> succ
  | Error message -> failwith ("gcm-window: " ^ message)

(* Rounded to the three decimals the query text carries. *)
let horizon ~seed i =
  float_of_string
    (Printf.sprintf "%.3f" (Harness.spread ~seed ~salt:0 ~axis:0 i 24.0 48.0))

let solve ?tr ?tel succ ~t =
  let span name f = Spans.span tr name f in
  let q =
    span "logic.parse" (fun () ->
        Logic.Parser.query
          (Printf.sprintf "P=? ( true U[t<=%.3f] frontier )" t))
  in
  match
    span "explore.solve" (fun () ->
        Perf.Symbolic.eval ?telemetry:tel ~epsilon
          (Perf.Symbolic.create succ) q)
  with
  | Perf.Symbolic.Numeric a -> a
  | Perf.Symbolic.Boolean _ -> failwith "gcm-window: expected a numeric answer"

let oracle (a : Perf.Symbolic.answer) =
  a.delta <= epsilon && a.value >= 0.0 && a.value <= 1.0

(* Set-up is the same for every seed: compile, then one solve at the
   middle of the horizon range. *)
let setup () =
  let succ = compile () in
  ignore (solve succ ~t:36.0);
  succ

let run ~seed ~seconds =
  let setup_times, succ = Harness.time_setup setup in
  let s =
    Harness.timed_loop ~seconds ~min_ops:2 (fun i ->
        oracle (solve succ ~t:(horizon ~seed i)))
  in
  Harness.describe_loop ~workload:"gcm-window" s;
  { Harness.attempted = s.ops; failed = s.op_failures; checks = [];
    metrics = Harness.loop_end_to_end ~setup:setup_times s }

let trace ~seed ~ops tr =
  let succ = setup () in
  for _ = 1 to 5 do
    ignore (Spans.span (Some tr) "lang.compile" compile)
  done;
  let totals = Telemetry.create () in
  let peaks = ref [] and rights = ref [] in
  let traced i =
    let t = horizon ~seed i in
    let tel = Telemetry.create () in
    let a = Spans.op tr i (fun () -> solve ~tr ~tel succ ~t) in
    let peak = Telemetry.gauge tel "explore.peak_window" in
    peaks := Option.value ~default:0.0 peak :: !peaks;
    (* The window engine asks for q = rate * t at epsilon / 2. *)
    Option.iter
      (fun rate ->
        rights :=
          Spans.fox_glynn_probe tr ~q:(rate *. t) ~epsilon:(epsilon /. 2.0)
          :: !rights)
      (Telemetry.gauge tel "explore.rate");
    Telemetry.absorb totals (Telemetry.report tel);
    a
  in
  let p =
    Harness.paired ~ops ~traced ~plain:(fun i ->
        solve succ ~t:(horizon ~seed i))
  in
  let per_op = Harness.per_op totals ~ops in
  { Harness.attempted = ops;
    failed = List.length (List.filter (fun a -> not (oracle a)) p.plain);
    checks =
      [ ("traced answers equal untraced answers",
         List.for_all2
           (fun (a : Perf.Symbolic.answer) (b : Perf.Symbolic.answer) ->
             Float.equal a.value b.value && Float.equal a.delta b.delta)
           p.plain p.traced) ];
    metrics =
      [ Spans.mean_us tr "logic.parse"; Spans.mean_ms tr "lang.compile";
        Spans.mean_ms tr "explore.solve";
        per_op "explore.states_expanded";
        Harness.metric "explore.peak_window" "count" (Harness.mean !peaks);
        per_op "explore.iterations"; per_op "explore.restarts";
        Harness.metric "explore.expanded_per_s" "1/s"
          (Harness.counter totals "explore.states_expanded"
          /. Spans.total tr "explore.solve");
        Spans.mean_ms tr "numerics.fox_glynn";
        Harness.metric "fox_glynn.right" "count" (Harness.mean !rights) ]
      @ Spans.validity tr ~plain_seconds:p.plain_seconds
      @ Harness.gc_metrics ~ops p.gc }
