(* check-cold: one csrl-check call per op, minus the process start —
   parse the query, build a fresh checking context, evaluate, after
   clearing the process-wide Fox–Glynn memo.  Theorem 1, the reduction
   pipeline, Sericola and Fox–Glynn do almost all of the work; no cache,
   server, explorer or robust code runs.

   The op stream is a fixed cycle of query slots over three models, so
   every seed sees the same mix; the seed only draws the real-valued
   time and reward bounds.  Op 0 is the paper's Q3, pinned. *)

type model = {
  mrm : Markov.Mrm.t;
  labeling : Markov.Labeling.t;
  init : int;
}

(* The tracked multiprocessor of the reduction bench: 2^9 = 512 states
   whose lumping quotient has 10 blocks. *)
let multiprocessor_9 =
  { Models.Multiprocessor.n_processors = 9; failure_rate = 0.2;
    repair_rate = 1.0; capacity = 8; throughput_per_processor = 1.0 }

let build_models () =
  let cluster = Models.Cluster.default in
  [| { mrm = Models.Adhoc.mrm (); labeling = Models.Adhoc.labeling ();
       init = Models.Adhoc.initial_state };
     { mrm = Models.Cluster.mrm cluster;
       labeling = Models.Cluster.labeling cluster;
       init = Models.Cluster.initial_state cluster };
     { mrm = Models.Multiprocessor.tracked_mrm multiprocessor_9;
       labeling = Models.Multiprocessor.tracked_labeling multiprocessor_9;
       init = Models.Multiprocessor.tracked_initial_state multiprocessor_9 } |]

let adhoc = 0 and cluster = 1 and multiprocessor = 2

let q3 = "P=? ( (call_idle | doze) U[t<=24][r<=600] call_initiated )"
let q3_value = "0.4969967279"

(* A slot's [k]-th query; [draw axis lo hi] gives its bounds. *)
let p3 ~phi ~psi (tlo, thi) (rlo, rhi) draw =
  Printf.sprintf "P=? ( %s U[t<=%.3f][r<=%.3f] %s )" phi (draw 0 tlo thi)
    (draw 1 rlo rhi) psi

let p1 ~phi ~psi (tlo, thi) draw =
  Printf.sprintf "P=? ( %s U[t<=%.3f] %s )" phi (draw 0 tlo thi) psi

(* Eight P3 slots and two P1 slots.  The adhoc Q3 slots are the paper's
   Q3 with bounds near its (24, 600); the multiprocessor slots start at
   `bench reduce`'s (10, 50); the other slots and the slot mix are
   synthetic, tuned for low spread, not taken from any recorded use.
   Costs on a 2-core x86 host: adhoc P3 about 150-200 ms, cluster P3
   about 70 ms, multiprocessor P3 about 40 ms, P1 about 1 ms.  Sorted by
   cost the slots put the median inside the three cluster slots and the
   90th percentile inside the three adhoc ones, never on the edge
   between two kinds, and the bound ranges are narrow (about +/-8%), so
   which reals a seed draws hardly moves a run's percentiles. *)
let slots =
  let adhoc_q3 =
    p3 ~phi:"(call_idle | doze)" ~psi:"call_initiated" (22., 26.) (550., 650.)
  and adhoc_incoming =
    p3 ~phi:"!call_active" ~psi:"call_incoming" (0.38, 0.42) (15., 17.)
  and cluster_p3 =
    p3 ~phi:"available" ~psi:"down" (550., 650.) (10000., 12000.)
  and mp_p3 = p3 ~phi:"up" ~psi:"down" (10., 12.) (50., 60.) in
  [| (adhoc, adhoc_q3); (multiprocessor, mp_p3); (cluster, cluster_p3);
     (adhoc, p1 ~phi:"true" ~psi:"call_initiated" (12., 48.));
     (cluster, cluster_p3); (adhoc, adhoc_incoming); (multiprocessor, mp_p3);
     (cluster, cluster_p3);
     (cluster, p1 ~phi:"true" ~psi:"down" (200., 800.));
     (adhoc, adhoc_q3) |]

(* Op i is the (i / 10)-th query of slot i mod 10. *)
let op_query ~seed i =
  if i = 0 then (adhoc, q3)
  else
    let n = Array.length slots in
    let model, gen = slots.(i mod n) in
    (model,
     gen (fun axis -> Harness.spread ~seed ~salt:(i mod n) ~axis (i / n)))

(* The untraced op: exactly what csrl-check does per query. *)
let check m text =
  Numerics.Fox_glynn.cache_clear ();
  let q = Logic.Parser.query text in
  let ctx = Checker.make m.mrm m.labeling in
  match Checker.eval_query ctx q with
  | Checker.Numeric v -> v.{m.init}
  | _ -> failwith "check-cold: expected a numeric verdict"

let oracle i v =
  v >= 0.0 && v <= 1.0 && (i <> 0 || Printf.sprintf "%.10f" v = q3_value)

(* Set-up is the same for every seed: the models, then the pinned Q3. *)
let setup () =
  let models = build_models () in
  ignore (check models.(adhoc) q3);
  models

let run ~seed ~seconds =
  let setup_times, models = Harness.time_setup setup in
  let s =
    Harness.timed_loop ~seconds ~min_ops:3 (fun i ->
        let model, text = op_query ~seed i in
        oracle i (check models.(model) text))
  in
  Harness.describe_loop ~workload:"check-cold" s;
  { Harness.attempted = s.ops; failed = s.op_failures; checks = [];
    metrics = Harness.loop_end_to_end ~setup:setup_times s }

(* ------------------------------------------------------------------ *)
(* The traced op: the same computation as [Checker.eval_query], called
   layer by layer from outside so each public function gets a span.   *)

let traced_check tr tel m text =
  Numerics.Fox_glynn.cache_clear ();
  let span name f = Spans.span (Some tr) name f in
  let q = span "logic.parse" (fun () -> Logic.Parser.query text) in
  let ctx = span "checker.make" (fun () -> Checker.make m.mrm m.labeling) in
  match q with
  | Logic.Ast.Prob_query (Logic.Ast.Until (time, reward, f, g)) -> begin
      let phi, psi =
        span "checker.sat" (fun () -> (Checker.sat ctx f, Checker.sat ctx g))
      in
      let t = Numerics.Time_interval.bound_exn time in
      let v =
        match Numerics.Time_interval.upper reward with
        | Some r ->
          let reduced =
            span "perf.theorem1" (fun () -> Perf.Reduced.reduce m.mrm ~phi ~psi)
          in
          let solve p =
            span "perf.engine" (fun () ->
                Perf.Engine.solve ~telemetry:tel Perf.Engine.default p)
          in
          span "perf.reduction" (fun () ->
              let pipeline =
                Perf.Reduction.prepare_on ~telemetry:tel reduced
              in
              Perf.Reduction.until_probabilities_on pipeline ~telemetry:tel
                solve ~phi ~psi ~time_bound:t ~reward_bound:r)
        | None ->
          span "markov.transient" (fun () ->
              let chain = Markov.Mrm.ctmc m.mrm in
              let absorb = Array.mapi (fun s p -> psi.(s) || not p) phi in
              Markov.Transient.reachability_all ~epsilon:1e-9 ~telemetry:tel
                (Markov.Transform.make_absorbing chain ~absorb)
                ~goal:psi ~t)
      in
      v.{m.init}
    end
  | _ -> failwith "check-cold: expected an until query"

let trace ~seed ~ops tr =
  let models = setup () in
  let queries = Array.init ops (op_query ~seed) in
  let totals = Telemetry.create () in
  let rights = ref [] in
  let traced i =
    let m, text = queries.(i) in
    let tel = Telemetry.create () in
    let v = Spans.op tr i (fun () -> traced_check tr tel models.(m) text) in
    (* Sericola asks Fox–Glynn for 1e-16, transient analysis for 1e-9. *)
    let epsilon =
      if Telemetry.counter tel "sericola.layers" = None then 1e-9 else 1e-16
    in
    Option.iter
      (fun q -> rights := Spans.fox_glynn_probe tr ~q ~epsilon :: !rights)
      (Telemetry.gauge tel "uniformisation.q");
    Telemetry.absorb totals (Telemetry.report tel);
    v
  in
  let p =
    Harness.paired ~ops ~traced ~plain:(fun i ->
        let m, text = queries.(i) in
        check models.(m) text)
  in
  let per_op = Harness.per_op totals ~ops in
  (* States entering and leaving the reduction pipeline, per pipeline. *)
  let per_run name =
    Harness.metric name "count"
      (Harness.counter totals name
      /. Float.max 1.0 (Harness.counter totals "reduction.runs"))
  in
  let ms = Spans.self_ms tr in
  { Harness.attempted = ops;
    failed = List.length (List.filter not (List.mapi oracle p.plain));
    checks =
      [ ("traced answers bit-identical to Checker.eval_query",
         List.for_all2 Float.equal p.plain p.traced) ];
    metrics =
      [ Spans.mean_us tr "logic.parse"; ms "checker.make"; ms "checker.sat";
        ms "perf.theorem1";
        ms "perf.reduction"; ms "perf.engine"; ms "markov.transient";
        per_run "reduction.states_before"; per_run "reduction.states_after";
        per_op "sericola.layers"; per_op "sericola.cells";
        per_op "uniformisation.iterations";
        Spans.mean_ms tr "numerics.fox_glynn";
        Harness.metric "fox_glynn.right" "count" (Harness.mean !rights) ]
      @ Spans.validity tr ~plain_seconds:p.plain_seconds
      @ Harness.gc_metrics ~ops p.gc }
