(* batch-warm: batches of queries over one model, each batch with a
   fresh memo and a cleared Fox–Glynn memo.  A batch holds 18 threshold
   and P=? queries sharing (Phi, Psi) over 2 (t, r) pairs, plus one
   frontier[8] sweep on the tracked multiprocessor.  The kernels are the
   ones check-cold runs, but the memo layers decide how often they run,
   so a cache change shows here and not in check-cold.

   The batch shape is `bench batch`'s: threshold and P=? variants of one
   path formula per (t, r) pair.  Its size is synthetic, chosen so that a
   batch costs about 100 ms on a 2-core x86 host and a run times well
   over 100 batches, enough samples for a 90th percentile.

   An op is one batch; ops_per_s counts queries (the sweep counts as
   one).  Batch b runs on model b mod 3, so every seed sees the same
   model mix; the seed draws the bounds (evenly spread over their ranges
   within a run, see [Harness.spread]) and the thresholds. *)

open Check_cold

(* Per model: Phi, Psi and the (t, r) ranges, narrow and synthetic,
   chosen so that a batch costs about the same on each model. *)
let families =
  [| ("(call_idle | doze)", "call_initiated", (8., 10.), (180., 230.));
     ("available", "down", (400., 500.), (8000., 9500.));
     ("up", "down", (10., 12.), (50., 60.)) |]

let pairs = 2 and thresholds = 8

let queries_per_batch = (pairs * (thresholds + 1)) + 1

let batch_queries ~seed b =
  let model = b mod Array.length families in
  let phi, psi, (tlo, thi), (rlo, rhi) = families.(model) in
  let st = Harness.rng ~seed ~salt:b in
  let path j =
    let k = (b / Array.length families * pairs) + j in
    Printf.sprintf "%s U[t<=%.3f][r<=%.3f] %s" phi
      (Harness.spread ~seed ~salt:model ~axis:0 k tlo thi)
      (Harness.spread ~seed ~salt:model ~axis:1 k rlo rhi) psi
  in
  let texts =
    List.concat_map
      (fun path ->
        Printf.sprintf "P=? ( %s )" path
        :: List.init thresholds (fun k ->
               Printf.sprintf "P%s%.4f ( %s )"
                 (if k mod 2 = 0 then ">=" else "<")
                 (Random.State.float st 1.0) path))
      (List.init pairs path)
  in
  (model, texts)

(* The frontier runs on the 4-processor tracked multiprocessor (16
   states): a sweep costs about a hundred small solves, which on the
   512-state model would take seconds and make the sweep the whole
   batch.  The threshold is low enough that every row of the staircase
   is feasible: a sweep whose easiest row fails stops after one solve,
   which would make the sweep's cost bimodal. *)
let frontier_model =
  let c = { multiprocessor_9 with Models.Multiprocessor.n_processors = 4 } in
  { mrm = Models.Multiprocessor.tracked_mrm c;
    labeling = Models.Multiprocessor.tracked_labeling c;
    init = Models.Multiprocessor.tracked_initial_state c }

let frontier_query ~seed b =
  Printf.sprintf "frontier[8] P>=%.4f ( up U[t<=%.3f][r<=%.3f] down )"
    (Harness.spread ~seed ~salt:(-1) ~axis:0 b 0.0005 0.0006)
    (Harness.spread ~seed ~salt:(-2) ~axis:0 b 2.5 3.)
    (Harness.spread ~seed ~salt:(-2) ~axis:1 b 5. 6.)

type batch = {
  verdicts : Checker.verdict list;
  memo : Checker.memo;
  fox_glynn : Numerics.Fox_glynn.cache_counters;
  sweep : Batch.Frontier.result;
}

(* One op; [tr] adds spans around each library call, [tel] collects the
   kernels' counters. *)
let run_batch ?tr ?tel models ~seed b =
  Numerics.Fox_glynn.cache_clear ();
  let span name f = Spans.span tr name f in
  let model, texts = batch_queries ~seed b in
  let m = models.(model) in
  let parse text = span "logic.parse" (fun () -> Logic.Parser.query text) in
  let queries = List.map parse texts in
  let memo = Checker.create_memo () in
  let verdicts =
    span "batch.run" (fun () ->
        Batch.run ?telemetry:tel ~memo (Checker.make m.mrm m.labeling) queries)
  in
  let fox_glynn = Numerics.Fox_glynn.cache_counters () in
  let f = frontier_model in
  let fq = parse (frontier_query ~seed b) in
  let sweep =
    span "frontier.run" (fun () ->
        Batch.Frontier.run ?telemetry:tel ~memo:(Checker.create_memo ())
          (Checker.make f.mrm f.labeling)
          ~init:(Linalg.Vec.unit (Markov.Mrm.n_states f.mrm) f.init)
          fq)
  in
  { verdicts; memo; fox_glynn; sweep }

let same_bits a b =
  match (a, b) with
  | Checker.Numeric x, Checker.Numeric y -> Harness.bit_equal x y
  | Checker.Boolean x, Checker.Boolean y -> x = y
  | _ -> false

(* The batch invariant: batched answers are bit-identical to cold
   single-query evaluations. *)
let identical_to_cold models ~seed b verdicts =
  let model, texts = batch_queries ~seed b in
  let m = models.(model) in
  List.for_all2
    (fun text v ->
      Numerics.Fox_glynn.cache_clear ();
      same_bits v
        (Checker.eval_query (Checker.make m.mrm m.labeling)
           (Logic.Parser.query text)))
    texts verdicts

let valid b =
  List.for_all
    (function
      | Checker.Numeric v ->
        List.for_all
          (fun i -> v.{i} >= 0.0 && v.{i} <= 1.0)
          (List.init (Linalg.Vec.length v) Fun.id)
      | Checker.Boolean _ -> true
      | _ -> false)
    b.verdicts
  && b.sweep.Batch.Frontier.evaluations > 0

(* Set-up is the same for every seed: the models, then one batch of
   seed 0. *)
let setup () =
  let models = build_models () in
  ignore (run_batch models ~seed:0 0);
  models

let run ~seed ~seconds =
  let setup_times, models = Harness.time_setup setup in
  let first = ref None in
  let s =
    Harness.timed_loop ~seconds ~min_ops:1 (fun i ->
        let b = run_batch models ~seed i in
        if i = 0 then first := Some b.verdicts;
        valid b)
  in
  Harness.describe_loop ~workload:"batch-warm" s;
  let identical =
    match !first with
    | Some v -> identical_to_cold models ~seed 0 v
    | None -> false
  in
  { Harness.attempted = s.ops; failed = s.op_failures;
    checks = [ ("first batch bit-identical to cold eval_query", identical) ];
    metrics =
      Harness.loop_end_to_end ~work_per_op:(float_of_int queries_per_batch)
        ~setup:setup_times s }

let trace ~seed ~ops tr =
  let models = setup () in
  let tel = Telemetry.create () in
  let p =
    Harness.paired ~ops
      ~plain:(fun b -> run_batch models ~seed b)
      ~traced:(fun b ->
        Spans.op tr b (fun () -> run_batch ~tr ~tel models ~seed b))
  in
  let hit_rate cache =
    let hits, lookups =
      List.fold_left
        (fun (h, l) b ->
          if cache = "fox_glynn" then
            (h + b.fox_glynn.Numerics.Fox_glynn.hits,
             l + b.fox_glynn.Numerics.Fox_glynn.lookups)
          else
            match List.assoc_opt cache (Checker.memo_counters b.memo) with
            | Some c -> (h + c.Perf.Batch.hits, l + c.Perf.Batch.lookups)
            | None -> (h, l))
        (0, 0) p.traced
    in
    Harness.metric ("batch." ^ cache ^ ".hit_rate") "frac"
      (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups)
  in
  let per_op = Harness.per_op tel ~ops in
  { Harness.attempted = ops;
    failed = List.length (List.filter (fun b -> not (valid b)) p.plain);
    checks = [];
    metrics =
      [ Spans.mean_us tr "logic.parse"; Spans.mean_ms tr "batch.run";
        hit_rate "sat"; hit_rate "path"; hit_rate "reduced";
        hit_rate "reduction"; hit_rate "until"; hit_rate "fox_glynn";
        Spans.mean_ms tr "frontier.run"; per_op "frontier.evaluations";
        per_op "sericola.layers"; per_op "sericola.cells";
        per_op "uniformisation.iterations" ]
      @ Spans.validity tr ~plain_seconds:p.plain_seconds
      @ Harness.gc_metrics ~ops p.gc }
