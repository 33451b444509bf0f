(* robust-drift: each op builds a robust context over an interval model
   ([Checker.make_robust]) and evaluates one time-bounded until, so
   [Robust.Envelope.until] dominates.  The models are the check-cold
   three widened by a seeded relative drift in [1%, 20%].
   Reward-bounded robust queries are left out on purpose: their lower
   envelope prunes instead of solving the reward dimension and answers
   0 in a fraction of a millisecond, so timing them would time that
   shortcut, and making it real would read as a regression.

   The adhoc and multiprocessor horizons are check-cold's; the cluster
   horizon and the even model mix are synthetic, tuned for low spread.
   Op i runs on model i mod 3 (the same mix for every seed); the seed
   draws the drift, the horizon, and the 5% of ops (plus op 0) whose
   envelope is checked against a precise solve of the interval
   midpoints. *)

open Check_cold

let epsilon = 1e-9
let drifts_per_model = 8

let queries =
  [| ("(call_idle | doze)", "call_initiated", (22.0, 26.0));
     ("available", "down", (270.0, 330.0));
     ("up", "down", (10.0, 12.0)) |]

type op = {
  model : int;
  imrm : Robust.Imrm.t;
  text : string;
  horizon : float;
  sampled : bool;  (** checked against the precise midpoint answer *)
}

let build_imrms ~seed models =
  Array.mapi
    (fun k m ->
      Array.init drifts_per_model (fun j ->
          let drift = Harness.spread ~seed ~salt:(-1 - k) ~axis:0 j 0.01 0.20 in
          Robust.Imrm.of_mrm ~rate_drift:drift m.mrm))
    models

let op ~seed imrms i =
  let n = Array.length queries in
  let model = i mod n and k = i / n in
  let phi, psi, (tlo, thi) = queries.(model) in
  let drift =
    Harness.spread ~seed ~salt:model ~axis:0 k 0.0
      (float_of_int drifts_per_model)
  in
  let imrm = imrms.(model).(int_of_float drift) in
  let horizon =
    Printf.sprintf "%.3f" (Harness.spread ~seed ~salt:model ~axis:1 k tlo thi)
  in
  let st = Harness.rng ~seed ~salt:i in
  { model; imrm; horizon = float_of_string horizon;
    text = Printf.sprintf "P=? ( %s U[t<=%s] %s )" phi horizon psi;
    sampled = i = 0 || Random.State.float st 1.0 < 0.05 }

let envelope models o =
  let m = models.(o.model) in
  let ctx = Checker.make_robust o.imrm m.labeling in
  match Checker.eval_query ctx (Logic.Parser.query o.text) with
  | Checker.Interval e -> e
  | _ -> failwith "robust-drift: expected an interval verdict"

let well_formed (e : Robust.Envelope.result) =
  List.for_all
    (fun s -> 0.0 <= e.lo.{s} && e.lo.{s} <= e.hi.{s} && e.hi.{s} <= 1.0)
    (List.init (Linalg.Vec.length e.lo) Fun.id)

(* Containment: the precise answer of one concrete model of the set —
   the interval midpoints — lies inside the envelope at every state. *)
let contains models o (e : Robust.Envelope.result) =
  let m = models.(o.model) in
  match
    Checker.eval_query
      (Checker.make (Robust.Imrm.midpoint o.imrm) m.labeling)
      (Logic.Parser.query o.text)
  with
  | Checker.Numeric v ->
    List.for_all
      (fun s -> e.lo.{s} <= v.{s} && v.{s} <= e.hi.{s})
      (List.init (Linalg.Vec.length v) Fun.id)
  | _ -> false

(* Set-up: the models and the seed's interval models, then one op per
   model on the interval models of seed 0, so its cost is the same for
   every seed. *)
let setup ~seed =
  let models = build_models () in
  let warm = build_imrms ~seed:0 models in
  for i = 0 to Array.length queries - 1 do
    ignore (envelope models (op ~seed:0 warm i))
  done;
  (models, build_imrms ~seed models)

let run ~seed ~seconds =
  let setup_times, (models, imrms) =
    Harness.time_setup (fun () -> setup ~seed)
  in
  let sampled = ref [] in
  let s =
    Harness.timed_loop ~seconds ~min_ops:20 (fun i ->
        let o = op ~seed imrms i in
        let e = envelope models o in
        if o.sampled then sampled := (o, e) :: !sampled;
        well_formed e)
  in
  Harness.describe_loop ~workload:"robust-drift" s;
  let contained = List.filter (fun (o, e) -> contains models o e) !sampled in
  Printf.printf "containment: %d of %d sampled envelopes hold the midpoint\n"
    (List.length contained) (List.length !sampled);
  { Harness.attempted = s.ops;
    failed = s.op_failures + List.length !sampled - List.length contained;
    checks = [];
    metrics = Harness.loop_end_to_end ~setup:setup_times s }

(* The traced op: [Checker.eval_query] on a robust context is the
   three-valued Sat sets of both arguments followed by one envelope
   solve; called layer by layer here. *)
let traced_envelope tr tel models o =
  let span name f = Spans.span (Some tr) name f in
  let m = models.(o.model) in
  let q = span "logic.parse" (fun () -> Logic.Parser.query o.text) in
  let ctx =
    span "checker.make" (fun () -> Checker.make_robust o.imrm m.labeling)
  in
  match q with
  | Logic.Ast.Prob_query (Logic.Ast.Until (_, _, f, g)) ->
    let tf, tg =
      span "checker.sat" (fun () ->
          (Checker.robust_sat ctx f, Checker.robust_sat ctx g))
    in
    let must = Array.map (fun v -> v = Checker.Holds)
    and may = Array.map (fun v -> v <> Checker.Fails) in
    span "robust.envelope" (fun () ->
        Robust.Envelope.until ~telemetry:tel ~epsilon o.imrm ~phi_must:(must tf)
          ~phi_may:(may tf) ~psi_must:(must tg) ~psi_may:(may tg)
          ~time_bound:o.horizon ~reward_bound:None)
  | _ -> failwith "robust-drift: expected an until query"

let trace ~seed ~ops tr =
  let models, imrms = setup ~seed in
  let totals = Telemetry.create () in
  let rights = ref [] in
  let traced i =
    let o = op ~seed imrms i in
    let tel = Telemetry.create () in
    let e = Spans.op tr i (fun () -> traced_envelope tr tel models o) in
    (* The envelope uniformises at the largest upper exit rate. *)
    let q = Robust.Imrm.max_exit_hi o.imrm *. o.horizon in
    rights := Spans.fox_glynn_probe tr ~q ~epsilon :: !rights;
    Telemetry.absorb totals (Telemetry.report tel);
    e
  in
  let p =
    Harness.paired ~ops ~traced ~plain:(fun i ->
        envelope models (op ~seed imrms i))
  in
  let ms = Spans.self_ms tr in
  { Harness.attempted = ops;
    failed = List.length (List.filter (fun e -> not (well_formed e)) p.plain);
    checks =
      [ ("traced envelopes bit-identical to Checker.eval_query",
         List.for_all2
           (fun (a : Robust.Envelope.result) (b : Robust.Envelope.result) ->
             Harness.bit_equal a.lo b.lo && Harness.bit_equal a.hi b.hi)
           p.plain p.traced) ];
    metrics =
      [ Spans.mean_us tr "logic.parse"; ms "checker.make"; ms "checker.sat";
        ms "robust.envelope"; Harness.per_op totals ~ops "robust.steps";
        Spans.mean_ms tr "numerics.fox_glynn";
        Harness.metric "fox_glynn.right" "count" (Harness.mean !rights) ]
      @ Spans.validity tr ~plain_seconds:p.plain_seconds
      @ Harness.gc_metrics ~ops p.gc }
