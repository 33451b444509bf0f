(* Tests for lib/robust: the interval-valued model type, the envelope
   solver's containment guarantee (a Monte-Carlo perturbation oracle:
   no concrete model of the uncertainty set may answer outside the
   envelope), zero-width bit-identity against the precise engines, and
   the qcheck nesting law (wider intervals give wider envelopes). *)

let bits = Int64.bits_of_float

let vec_states v = List.init (Linalg.Vec.length v) (fun s -> s)

(* ------------------------------------------------------------------ *)
(* Model construction and validation.                                  *)

let imrm_validation () =
  (* Each rejection names the offending entry, word for word: the
     messages reach users through --imrm and serve loads. *)
  let reject expected f =
    match f () with
    | _ -> Alcotest.failf "accepted: %s" expected
    | exception Invalid_argument message ->
      Alcotest.(check string) "rejection message" expected message
  in
  reject "Imrm: rate 0 -> 1 needs 0 <= lo <= hi (finite), got [2, 1]"
    (fun () ->
      Robust.Imrm.make ~n:2
        ~transitions:[ (0, 1, 2.0, 1.0) ]
        ~rewards:[| (0.0, 0.0); (0.0, 0.0) |]);
  reject "Imrm: rate 1 -> 0 needs 0 <= lo <= hi (finite), got [-1, 1]"
    (fun () ->
      Robust.Imrm.make ~n:2
        ~transitions:[ (0, 1, 1.0, 1.0); (1, 0, -1.0, 1.0) ]
        ~rewards:[| (0.0, 0.0); (0.0, 0.0) |]);
  reject "Imrm: rate 0 -> 1 needs 0 <= lo <= hi (finite), got [1, inf]"
    (fun () ->
      Robust.Imrm.make ~n:2
        ~transitions:[ (0, 1, 1.0, Float.infinity) ]
        ~rewards:[| (0.0, 0.0); (0.0, 0.0) |]);
  reject "Imrm.make: transition 0 -> 2 out of range" (fun () ->
      Robust.Imrm.make ~n:2
        ~transitions:[ (0, 2, 1.0, 1.0) ]
        ~rewards:[| (0.0, 0.0); (0.0, 0.0) |]);
  reject "Imrm.make: self-loop on state 0" (fun () ->
      Robust.Imrm.make ~n:2
        ~transitions:[ (0, 0, 1.0, 1.0) ]
        ~rewards:[| (0.0, 0.0); (0.0, 0.0) |]);
  reject "Imrm.make: duplicate transition 0 -> 1" (fun () ->
      Robust.Imrm.make ~n:2
        ~transitions:[ (0, 1, 1.0, 1.0); (1, 0, 1.0, 1.0); (0, 1, 2.0, 3.0) ]
        ~rewards:[| (0.0, 0.0); (0.0, 0.0) |]);
  reject "Imrm: reward of state 0 needs 0 <= lo <= hi (finite), got [2, 1]"
    (fun () ->
      Robust.Imrm.make ~n:1 ~transitions:[] ~rewards:[| (2.0, 1.0) |]);
  reject "Imrm: reward of state 1 needs 0 <= lo <= hi (finite), got [nan, 1]"
    (fun () ->
      Robust.Imrm.make ~n:2 ~transitions:[]
        ~rewards:[| (0.0, 1.0); (Float.nan, 1.0) |]);
  reject "Imrm.make: rewards length must equal the state count" (fun () ->
      Robust.Imrm.make ~n:2 ~transitions:[] ~rewards:[| (0.0, 0.0) |]);
  reject "Imrm.of_mrm: rate drift must lie in [0, 1), got 1" (fun () ->
      Robust.Imrm.of_mrm ~rate_drift:1.0 (Models.Adhoc.mrm ()));
  (* Impulse rewards are not representable. *)
  let impulse_model =
    Models.Random_mrm.generate ~seed:7L Models.Random_mrm.with_impulses
  in
  Alcotest.(check bool) "generator produced impulses" true
    (Markov.Mrm.has_impulses impulse_model);
  reject
    "Imrm.point: impulse rewards are not supported by the robust engine \
     (its capability flags say so); strip them or use a precise engine"
    (fun () -> Robust.Imrm.point impulse_model);
  (* hi = 0 transitions are dropped rather than stored. *)
  let m =
    Robust.Imrm.make ~n:3
      ~transitions:[ (0, 1, 1.0, 2.0); (0, 2, 0.0, 0.0) ]
      ~rewards:[| (0.0, 1.0); (0.0, 0.0); (0.0, 0.0) |]
  in
  Alcotest.(check int) "zero transition dropped" 1
    (Robust.Imrm.n_transitions m);
  Alcotest.(check (float 0.0)) "exit_hi" 2.0 (Robust.Imrm.exit_hi m 0);
  Alcotest.(check bool) "not a point (reward width)" false
    (Robust.Imrm.is_point m)

let of_mrm_roundtrip () =
  let mrm = Models.Adhoc.mrm () in
  let point = Robust.Imrm.point mrm in
  Alcotest.(check bool) "point is a point" true (Robust.Imrm.is_point point);
  Alcotest.(check (float 0.0)) "point width" 0.0
    (Robust.Imrm.max_width point);
  let drifted = Robust.Imrm.of_mrm ~rate_drift:0.1 mrm in
  Alcotest.(check bool) "drifted is not a point" false
    (Robust.Imrm.is_point drifted);
  (* The midpoint of a symmetric drift is the source model's rates. *)
  let mid = Robust.Imrm.midpoint drifted in
  let rates m = Markov.Ctmc.rates (Markov.Mrm.ctmc m) in
  Linalg.Csr.iter (rates mid) (fun s d v ->
      let reference = Linalg.Csr.get (rates mrm) s d in
      if abs_float (v -. reference) > 1e-12 *. reference then
        Alcotest.failf "midpoint rate %d->%d drifted: %g vs %g" s d v
          reference);
  (* Sampling stays inside the intervals. *)
  let rng = Random.State.make [| 42 |] in
  let sampled = Robust.Imrm.sample rng drifted in
  Linalg.Csr.iter (rates sampled) (fun s d v ->
      let reference = Linalg.Csr.get (rates mrm) s d in
      if v < 0.9 *. reference -. 1e-12 || v > 1.1 *. reference +. 1e-12 then
        Alcotest.failf "sampled rate %d->%d outside drift: %g vs %g" s d v
          reference)

(* ------------------------------------------------------------------ *)
(* Monte-Carlo perturbation oracle: for >= 50 concrete models sampled
   from the uncertainty set, the precise answer lies inside the
   envelope.  This is the containment guarantee end to end — sampling,
   precise engines, robust context — not just the VI kernel.           *)

let mc_containment ~name ~samples ~drift mrm labeling query_text =
  let imrm = Robust.Imrm.of_mrm ~rate_drift:drift mrm in
  let robust_ctx = Checker.make_robust ~epsilon:1e-9 imrm labeling in
  let query = Logic.Parser.query query_text in
  let env =
    match Checker.eval_query robust_ctx query with
    | Checker.Interval env -> env
    | _ -> Alcotest.fail "expected an interval verdict"
  in
  let rng = Random.State.make [| 0xbeef |] in
  for i = 1 to samples do
    let concrete = Robust.Imrm.sample rng imrm in
    let ctx = Checker.make ~epsilon:1e-9 concrete labeling in
    match Checker.eval_query ctx query with
    | Checker.Numeric v ->
      List.iter
        (fun s ->
          let lo = env.Robust.Envelope.lo.{s}
          and hi = env.Robust.Envelope.hi.{s} in
          if not (lo <= v.{s} && v.{s} <= hi) then
            Alcotest.failf
              "%s: sample %d state %d: precise %.17g outside [%.17g, %.17g]"
              name i s v.{s} lo hi)
        (vec_states v)
    | _ -> Alcotest.fail "expected a numeric verdict"
  done

let mc_oracle_time () =
  let mrm = Models.Multiprocessor.mrm Models.Multiprocessor.default in
  let labeling = Models.Multiprocessor.labeling Models.Multiprocessor.default in
  mc_containment ~name:"multiprocessor F[t<=2] down" ~samples:30 ~drift:0.15
    mrm labeling "P=? ( F[t<=2] down )"

let mc_oracle_time_reward () =
  mc_containment ~name:"adhoc U[t][r]" ~samples:30 ~drift:0.1
    (Models.Adhoc.mrm ()) (Models.Adhoc.labeling ())
    "P=? ( (call_idle | doze) U[t<=24][r<=600] call_initiated )"

(* ------------------------------------------------------------------ *)
(* Zero-width delegation: a robust context over [Imrm.point m] answers
   bit for bit what the precise context answers.                       *)

let zero_width_bit_identity () =
  let mrm = Models.Adhoc.mrm () and labeling = Models.Adhoc.labeling () in
  let precise = Checker.make ~epsilon:1e-9 mrm labeling in
  let robust =
    Checker.make_robust ~epsilon:1e-9 (Robust.Imrm.point mrm) labeling
  in
  List.iter
    (fun text ->
      let query = Logic.Parser.query text in
      match (Checker.eval_query precise query, Checker.eval_query robust query)
      with
      | Checker.Numeric v, Checker.Interval env ->
        List.iter
          (fun s ->
            if
              bits env.Robust.Envelope.lo.{s} <> bits v.{s}
              || bits env.Robust.Envelope.hi.{s} <> bits v.{s}
            then
              Alcotest.failf "%s state %d: [%.17g, %.17g] vs precise %.17g"
                text s env.Robust.Envelope.lo.{s} env.Robust.Envelope.hi.{s}
                v.{s})
          (vec_states v)
      | Checker.Boolean mask, Checker.Three_valued tris ->
        Array.iteri
          (fun s b ->
            if tris.(s) <> Checker.tri_of_bool b then
              Alcotest.failf "%s state %d: %s vs precise %b" text s
                (Checker.tri_to_string tris.(s))
                b)
          mask
      | _ -> Alcotest.fail "verdict kinds diverged")
    [ "P=? ( F[t<=2] doze )";
      "P=? ( (call_idle | doze) U[t<=24][r<=600] call_initiated )";
      "P>=0.3 ( (call_idle | doze) U[t<=24][r<=600] call_initiated )";
      "P<=0.9 ( F[t<=10] call_active )" ]

(* The memoised robust path returns bit-identical fresh copies. *)
let robust_memo_identity () =
  let mrm = Models.Adhoc.mrm () and labeling = Models.Adhoc.labeling () in
  let imrm = Robust.Imrm.of_mrm ~rate_drift:0.1 mrm in
  let ctx = Checker.make_robust ~epsilon:1e-9 imrm labeling in
  let memo = Checker.create_memo () in
  let query = Logic.Parser.query "P=? ( F[t<=2] doze )" in
  let solve () =
    match Checker.eval_query ~memo ctx query with
    | Checker.Interval env -> env
    | _ -> Alcotest.fail "expected an interval verdict"
  in
  let cold = solve () in
  let warm = solve () in
  List.iter
    (fun s ->
      Alcotest.(check bool) "warm lo identical" true
        (bits cold.Robust.Envelope.lo.{s} = bits warm.Robust.Envelope.lo.{s});
      Alcotest.(check bool) "warm hi identical" true
        (bits cold.Robust.Envelope.hi.{s} = bits warm.Robust.Envelope.hi.{s}))
    (vec_states cold.Robust.Envelope.lo);
  let counters = List.assoc "path" (Checker.memo_counters memo) in
  Alcotest.(check int) "warm lookup hit" 1 counters.Perf.Batch.hits

(* Three-valued threshold verdicts against an envelope. *)
let tri_of_bounds_cases () =
  let check name expected got =
    Alcotest.(check string) name
      (Checker.tri_to_string expected)
      (Checker.tri_to_string got)
  in
  check "whole envelope above" Checker.Holds
    (Checker.tri_of_bounds Logic.Ast.Ge 0.5 ~lo:0.6 ~hi:0.9);
  check "whole envelope below" Checker.Fails
    (Checker.tri_of_bounds Logic.Ast.Ge 0.5 ~lo:0.1 ~hi:0.4);
  check "straddles the bound" Checker.Unknown
    (Checker.tri_of_bounds Logic.Ast.Ge 0.5 ~lo:0.4 ~hi:0.6);
  check "Le flips the roles" Checker.Holds
    (Checker.tri_of_bounds Logic.Ast.Le 0.5 ~lo:0.1 ~hi:0.4);
  check "strict bound at the endpoint" Checker.Fails
    (Checker.tri_of_bounds Logic.Ast.Gt 0.5 ~lo:0.5 ~hi:0.5);
  (* Zero width never answers Unknown and agrees with compare_holds. *)
  List.iter
    (fun cmp ->
      List.iter
        (fun p ->
          List.iter
            (fun v ->
              let expected =
                Checker.tri_of_bool (Logic.Ast.compare_holds cmp p v)
              in
              check "zero width = compare_holds" expected
                (Checker.tri_of_bounds cmp p ~lo:v ~hi:v))
            [ 0.0; 0.25; 0.5; 1.0 ])
        [ 0.25; 0.5 ])
    [ Logic.Ast.Lt; Logic.Ast.Le; Logic.Ast.Gt; Logic.Ast.Ge ]

(* ------------------------------------------------------------------ *)
(* Interval-model JSON.                                                *)

let imrm_io () =
  let doc =
    Robust.Imrm_io.parse
      {|{"states": 3,
         "transitions": [[0, 1, 1.0, 2.0], [1, 2, 0.5], [2, 0, 1.0, 1.0]],
         "rewards": [[0.0, 1.0], 2.0, 0.0],
         "labels": {"up": [0, 1], "down": [2]},
         "init": 1}|}
  in
  Alcotest.(check int) "states" 3 (Robust.Imrm.n_states doc.Robust.Imrm_io.imrm);
  Alcotest.(check int) "transitions" 3
    (Robust.Imrm.n_transitions doc.Robust.Imrm_io.imrm);
  Alcotest.(check (float 0.0)) "reward hi" 2.0
    (Robust.Imrm.reward_hi doc.Robust.Imrm_io.imrm 1);
  Alcotest.(check (float 0.0)) "init mass on 1" 1.0
    doc.Robust.Imrm_io.init.{1};
  Alcotest.(check bool) "label up holds in 0" true
    (Markov.Labeling.sat doc.Robust.Imrm_io.labeling "up").(0);
  let rejects text =
    match Robust.Imrm_io.parse text with
    | _ -> Alcotest.failf "accepted %s" text
    | exception Robust.Imrm_io.Format_error _ -> ()
  in
  rejects {|not json|};
  rejects {|{"transitions": []}|};
  rejects {|{"states": 2, "transitions": [[0, 5, 1.0]], "rewards": [0, 0]}|};
  rejects {|{"states": 2, "transitions": [[0, 1, 2.0, 1.0]], "rewards": [0, 0]}|};
  rejects {|{"states": 2, "transitions": [], "rewards": [0]}|};
  rejects
    {|{"states": 2, "transitions": [], "rewards": [0, 0], "init": [0.5, 0.1]}|}

(* ------------------------------------------------------------------ *)
(* Nesting: wider uncertainty gives wider (never narrower) envelopes.
   A shared uniformisation rate makes the discretisations comparable,
   so the inclusion holds exactly up to rounding.                      *)

let gen_seed = QCheck2.Gen.int_range 0 10_000

let envelopes_nest =
  QCheck2.Test.make ~count:30
    ~name:"robust: wider drift gives nested envelopes"
    QCheck2.Gen.(
      quad gen_seed
        (float_range 0.01 0.2)
        (float_range 0.2 1.0)
        (oneofl [ None; Some 1.0; Some 4.0 ]))
    (fun (seed, d1, scale, reward_bound) ->
      let d2 = d1 +. (0.25 *. scale) in
      let mrm, labeling =
        Models.Random_mrm.generate_labeled ~seed:(Int64.of_int seed)
          Models.Random_mrm.default
      in
      let time_bound = 0.5 +. scale in
      let narrow = Robust.Imrm.of_mrm ~rate_drift:d1 mrm in
      let wide = Robust.Imrm.of_mrm ~rate_drift:d2 mrm in
      let rate = Robust.Imrm.max_exit_hi wide in
      if rate <= 0.0 then true (* no transitions: nothing to nest *)
      else begin
        let phi = Markov.Labeling.sat labeling "a"
        and psi = Markov.Labeling.sat labeling "b" in
        let solve imrm =
          Robust.Envelope.until ~rate ~epsilon:1e-9 imrm ~phi_must:phi
            ~phi_may:phi ~psi_must:psi ~psi_may:psi ~time_bound ~reward_bound
        in
        let inner = solve narrow and outer = solve wide in
        List.iter
          (fun s ->
            let open Robust.Envelope in
            if inner.lo.{s} < outer.lo.{s} -. 1e-12 then
              QCheck2.Test.fail_reportf
                "state %d: narrow lo %.17g below wide lo %.17g" s inner.lo.{s}
                outer.lo.{s};
            if inner.hi.{s} > outer.hi.{s} +. 1e-12 then
              QCheck2.Test.fail_reportf
                "state %d: narrow hi %.17g above wide hi %.17g" s inner.hi.{s}
                outer.hi.{s})
          (vec_states inner.Robust.Envelope.lo);
        true
      end)

(* The sampled-model containment law on random models: any concrete
   realisation's precise transient answer lies inside the envelope. *)
let sampled_containment =
  QCheck2.Test.make ~count:25
    ~name:"robust: sampled concrete models stay inside the envelope"
    QCheck2.Gen.(triple gen_seed (float_range 0.02 0.25) (float_range 0.3 2.0))
    (fun (seed, drift, time_bound) ->
      let mrm, labeling =
        Models.Random_mrm.generate_labeled ~seed:(Int64.of_int seed)
          Models.Random_mrm.default
      in
      let imrm = Robust.Imrm.of_mrm ~rate_drift:drift mrm in
      let phi = Markov.Labeling.sat labeling "a"
      and psi = Markov.Labeling.sat labeling "b" in
      let env =
        Robust.Envelope.until ~epsilon:1e-9 imrm ~phi_must:phi ~phi_may:phi
          ~psi_must:psi ~psi_may:psi ~time_bound ~reward_bound:None
      in
      let rng = Random.State.make [| seed; 17 |] in
      let ok = ref true in
      for _ = 1 to 3 do
        let concrete = Robust.Imrm.sample rng imrm in
        let ctx = Checker.make ~epsilon:1e-9 concrete labeling in
        let v =
          Checker.path_probabilities ctx
            (Logic.Ast.Until
               ( Numerics.Time_interval.upto time_bound,
                 Numerics.Time_interval.unbounded, Logic.Ast.Ap "a",
                 Logic.Ast.Ap "b" ))
        in
        List.iter
          (fun s ->
            if
              not
                (env.Robust.Envelope.lo.{s} <= v.{s}
                && v.{s} <= env.Robust.Envelope.hi.{s})
            then begin
              ok := false;
              QCheck2.Test.fail_reportf
                "state %d: precise %.17g outside [%.17g, %.17g]" s v.{s}
                env.Robust.Envelope.lo.{s} env.Robust.Envelope.hi.{s}
            end)
          (vec_states v)
      done;
      !ok)

let suite =
  ( "robust",
    [ Alcotest.test_case "imrm validation" `Quick imrm_validation;
      Alcotest.test_case "of_mrm/point/sample roundtrip" `Quick
        of_mrm_roundtrip;
      Alcotest.test_case "MC oracle: time-bounded" `Slow mc_oracle_time;
      Alcotest.test_case "MC oracle: time- and reward-bounded" `Slow
        mc_oracle_time_reward;
      Alcotest.test_case "zero width is bit-identical to precise" `Quick
        zero_width_bit_identity;
      Alcotest.test_case "memoised envelopes are bit-identical" `Quick
        robust_memo_identity;
      Alcotest.test_case "tri_of_bounds" `Quick tri_of_bounds_cases;
      Alcotest.test_case "interval-model JSON" `Quick imrm_io;
      QCheck_alcotest.to_alcotest envelopes_nest;
      QCheck_alcotest.to_alcotest sampled_containment ] )
