(* Tests for the impulse-reward extension (the paper's other Section 6
   future-work item): exact support in the discretisation engine, the
   simulator and the expected-reward analyses; approximate support in the
   pseudo-Erlang engine; explicit rejection elsewhere. *)

let check_close ?(tol = 1e-9) what expected actual =
  if not (Numerics.Float_utils.approx_eq ~rel:tol ~abs:tol expected actual)
  then Alcotest.failf "%s: expected %.17g, got %.17g" what expected actual

let impulse_matrix ~n entries = Linalg.Csr.of_coo ~rows:n ~cols:n entries

(* The canonical closed-form case: s0 (rate reward zero) jumps to an
   absorbing goal with rate lam, earning impulse c on the jump.
   Y_t is 0 before the jump and c after it, so
   Pr{Y_t <= r, X_t = goal} = (1 - e^-lam t) 1{c <= r}. *)
let single_impulse ~lam ~c =
  let m =
    Markov.Mrm.of_transitions ~n:2 [ (0, 1, lam) ] ~rewards:[| 0.0; 0.0 |]
  in
  Markov.Mrm.with_impulses m (impulse_matrix ~n:2 [ (0, 1, c) ])

let test_validation () =
  let m =
    Markov.Mrm.of_transitions ~n:2 [ (0, 1, 1.0) ] ~rewards:[| 1.0; 0.0 |]
  in
  Alcotest.(check bool) "no impulses" false (Markov.Mrm.has_impulses m);
  check_close "impulse default" 0.0 (Markov.Mrm.impulse m 0 1);
  let m' = Markov.Mrm.with_impulses m (impulse_matrix ~n:2 [ (0, 1, 2.5) ]) in
  Alcotest.(check bool) "has impulses" true (Markov.Mrm.has_impulses m');
  check_close "impulse stored" 2.5 (Markov.Mrm.impulse m' 0 1);
  check_close "max impulse" 2.5 (Markov.Mrm.max_impulse m');
  (* Impulse flow: rate * impulse. *)
  let flow = Markov.Mrm.impulse_flow m' in
  check_close "flow source" 2.5 flow.{0};
  check_close "flow sink" 0.0 flow.{1};
  (* Impulses on missing transitions are rejected. *)
  (try
     ignore (Markov.Mrm.with_impulses m (impulse_matrix ~n:2 [ (1, 0, 1.0) ]));
     Alcotest.fail "accepted an impulse without a transition"
   with Invalid_argument _ -> ());
  (* Negative impulses are rejected. *)
  (try
     ignore (Markov.Mrm.with_impulses m (impulse_matrix ~n:2 [ (0, 1, -1.0) ]));
     Alcotest.fail "accepted a negative impulse"
   with Invalid_argument _ -> ())

let test_discretisation_closed_form () =
  let lam = 0.8 and t = 2.0 in
  let reach = 1.0 -. Float.exp (-.lam *. t) in
  let goal = [| false; true |] in
  (* c = 1 <= r = 2: the jump fits the budget. *)
  let p =
    Perf.Problem.of_initial_state (single_impulse ~lam ~c:1.0) ~init:0 ~goal
      ~time_bound:t ~reward_bound:2.0
  in
  check_close ~tol:2e-3 "impulse within budget" reach
    (Perf.Discretization.solve ~step:(1.0 /. 128.0) p);
  (* c = 3 > r = 2: reaching the goal always blows the budget. *)
  let p =
    Perf.Problem.of_initial_state (single_impulse ~lam ~c:3.0) ~init:0 ~goal
      ~time_bound:t ~reward_bound:2.0
  in
  check_close "impulse over budget" 0.0
    (Perf.Discretization.solve ~step:(1.0 /. 128.0) p);
  (* c = r = 2: the jump spends the budget exactly, and Y_t <= r holds. *)
  let p =
    Perf.Problem.of_initial_state (single_impulse ~lam ~c:2.0) ~init:0 ~goal
      ~time_bound:t ~reward_bound:2.0
  in
  check_close ~tol:2e-3 "impulse exactly at budget" reach
    (Perf.Discretization.solve ~step:(1.0 /. 128.0) p)

let test_erlang_closed_form () =
  let lam = 0.8 and t = 2.0 in
  let reach = 1.0 -. Float.exp (-.lam *. t) in
  let goal = [| false; true |] in
  let p =
    Perf.Problem.of_initial_state (single_impulse ~lam ~c:1.0) ~init:0 ~goal
      ~time_bound:t ~reward_bound:2.0
  in
  check_close ~tol:2e-3 "impulse within budget" reach
    (Perf.Erlang_approx.solve ~phases:2048 p);
  let p =
    Perf.Problem.of_initial_state (single_impulse ~lam ~c:3.0) ~init:0 ~goal
      ~time_bound:t ~reward_bound:2.0
  in
  check_close ~tol:2e-3 "impulse over budget" 0.0
    (Perf.Erlang_approx.solve ~phases:2048 p);
  (* A jump of exactly r lands on the at-bound phase, within budget. *)
  let p =
    Perf.Problem.of_initial_state (single_impulse ~lam ~c:2.0) ~init:0 ~goal
      ~time_bound:t ~reward_bound:2.0
  in
  check_close ~tol:2e-3 "impulse exactly at budget" reach
    (Perf.Erlang_approx.solve ~phases:2048 p);
  let chain = Perf.Erlang_approx.expanded_ctmc p ~phases:4 in
  Alcotest.(check int) "at-bound states" 11 (Markov.Ctmc.n_states chain);
  check_close "jump to the bound" lam (Markov.Ctmc.rate chain 0 9);
  (* Past the bound (r = 1.5, a jump of round(2 * 4 / 1.5) = 5 > 4
     phases) the jump exhausts the budget. *)
  let p =
    Perf.Problem.of_initial_state (single_impulse ~lam ~c:2.0) ~init:0 ~goal
      ~time_bound:t ~reward_bound:1.5
  in
  let chain = Perf.Erlang_approx.expanded_ctmc p ~phases:4 in
  check_close "jump past the bound" lam (Markov.Ctmc.rate chain 0 10)

(* Mixed rate + impulse rewards: s0 has rate reward 1 and the jump earns
   c, so Y at the goal is sojourn + c and
   Pr{Y_t <= r, X_t = goal} = Pr{T <= min(t, r - c)} for r >= c. *)
let mixed_closed_form ~engine =
  let lam = 1.1 and t = 3.0 and c = 1.0 and r = 2.5 in
  let m =
    Markov.Mrm.of_transitions ~n:2 [ (0, 1, lam) ] ~rewards:[| 1.0; 0.0 |]
  in
  let m = Markov.Mrm.with_impulses m (impulse_matrix ~n:2 [ (0, 1, c) ]) in
  let p =
    Perf.Problem.of_initial_state m ~init:0 ~goal:[| false; true |]
      ~time_bound:t ~reward_bound:r
  in
  let exact = 1.0 -. Float.exp (-.lam *. Float.min t (r -. c)) in
  (exact, engine p)

let test_mixed_rewards () =
  let exact, value =
    mixed_closed_form ~engine:(Perf.Discretization.solve ~step:(1.0 /. 256.0))
  in
  check_close ~tol:3e-3 "discretisation mixed" exact value;
  let exact, value =
    mixed_closed_form ~engine:(Perf.Erlang_approx.solve ~phases:4096)
  in
  check_close ~tol:3e-3 "erlang mixed" exact value

let test_simulator_and_expectations () =
  let lam = 1.5 and c = 2.0 and t = 1.2 in
  let m = single_impulse ~lam ~c in
  (* Trajectory accumulation includes the impulse. *)
  let rng = Sim.Rng.create ~seed:99L in
  for _ = 1 to 200 do
    let tr = Sim.Trajectory.sample rng m ~init:0 ~horizon:t in
    let expected =
      if tr.Sim.Trajectory.final_state = 1 then c else 0.0
    in
    check_close "trajectory reward" expected tr.Sim.Trajectory.final_reward
  done;
  (* E[Y_t] = c * P(jump <= t). *)
  check_close ~tol:1e-9 "cumulative with impulse"
    (c *. (1.0 -. Float.exp (-.lam *. t)))
    (Markov.Expected_reward.cumulative m ~init:(Linalg.Vec.of_array [| 1.0; 0.0 |]) ~t);
  (* Expected reward to reach the goal is exactly the impulse. *)
  let values = Markov.Expected_reward.reachability m ~goal:[| false; true |] in
  check_close "reachability reward" c values.{0};
  (* Long-run rate: the chain gets absorbed, so the rate tends to 0. *)
  check_close "steady rate" 0.0
    (Markov.Expected_reward.steady_rate m ~init:(Linalg.Vec.of_array [| 1.0; 0.0 |]));
  (* A cyclic model: 0 <-> 1, impulse c on 0 -> 1.  The long-run impulse
     flow is pi_0 * lam * c. *)
  let cyc =
    Markov.Mrm.of_transitions ~n:2 [ (0, 1, 2.0); (1, 0, 6.0) ]
      ~rewards:[| 0.0; 0.0 |]
  in
  let cyc = Markov.Mrm.with_impulses cyc (impulse_matrix ~n:2 [ (0, 1, c) ]) in
  (* pi = (0.75, 0.25). *)
  check_close ~tol:1e-8 "cyclic steady impulse rate" (0.75 *. 2.0 *. c)
    (Markov.Expected_reward.steady_rate cyc ~init:(Linalg.Vec.of_array [| 1.0; 0.0 |]))

let test_rejections () =
  let m = single_impulse ~lam:1.0 ~c:1.0 in
  let p =
    Perf.Problem.of_initial_state m ~init:0 ~goal:[| false; true |]
      ~time_bound:1.0 ~reward_bound:2.0
  in
  (try
     ignore (Perf.Sericola.solve p);
     Alcotest.fail "sericola accepted impulses"
   with Invalid_argument _ -> ());
  Alcotest.(check bool) "not dualizable" false (Markov.Duality.is_dualizable m);
  (try
     ignore
       (Markov.Lumping.compute m
          (Markov.Labeling.empty ~n:(Markov.Mrm.n_states m)));
     Alcotest.fail "lumping accepted impulses"
   with Invalid_argument _ -> ());
  Alcotest.(check bool) "never trivially satisfied" false
    (Perf.Problem.reward_trivially_satisfied
       (Perf.Problem.of_initial_state m ~init:0 ~goal:[| false; true |]
          ~time_bound:1.0 ~reward_bound:1e12))

let test_reduced_keeps_states () =
  let m =
    Markov.Mrm.of_transitions ~n:4
      [ (0, 1, 1.0); (0, 2, 1.0); (1, 3, 2.0); (2, 3, 2.0) ]
      ~rewards:[| 1.0; 1.0; 1.0; 0.0 |]
  in
  (* Different impulses into the two goal-ish states prevent merging. *)
  let m =
    Markov.Mrm.with_impulses m (impulse_matrix ~n:4 [ (0, 1, 1.0); (0, 2, 5.0) ])
  in
  let phi = [| true; false; false; false |] in
  let psi = [| false; true; true; false |] in
  let red = Perf.Reduced.reduce m ~phi ~psi in
  Alcotest.(check bool) "not amalgamated" false red.Perf.Reduced.amalgamated;
  Alcotest.(check int) "all states kept" 4
    (Markov.Mrm.n_states red.Perf.Reduced.mrm);
  Alcotest.(check (list bool)) "goal mask is psi"
    (Array.to_list psi)
    (Array.to_list red.Perf.Reduced.goal);
  (* Impulses into the goals survive; rewards of absorbed states are 0. *)
  check_close "impulse kept" 5.0 (Markov.Mrm.impulse red.Perf.Reduced.mrm 0 2);
  check_close "absorbed reward zero" 0.0 (Markov.Mrm.reward red.Perf.Reduced.mrm 1)

(* The checker end to end with impulse models: P3 through the
   discretisation engine matches simulation. *)
let test_checker_with_impulses () =
  let m =
    Markov.Mrm.of_transitions ~n:3
      [ (0, 1, 2.0); (1, 0, 1.0); (1, 2, 0.5) ]
      ~rewards:[| 1.0; 2.0; 0.0 |]
  in
  let m =
    Markov.Mrm.with_impulses m
      (impulse_matrix ~n:3 [ (0, 1, 1.0); (1, 2, 2.0) ])
  in
  let labeling = Markov.Labeling.make ~n:3 [ ("goal", [ 2 ]) ] in
  let ctx =
    Checker.make ~engine:(Perf.Engine.Discretize { step = 1.0 /. 128.0 }) m
      labeling
  in
  let values =
    match
      Checker.eval_query ctx (Logic.Parser.query "P=? ( F[t<=4][r<=8] goal )")
    with
    | Checker.Numeric v -> v
    | _ -> Alcotest.fail "expected numeric"
  in
  let rng = Sim.Rng.create ~seed:2026L in
  let iv =
    Sim.Estimate.until_probability ~confidence:0.999 rng m ~init:0
      ~phi:[| true; true; true |]
      ~psi:[| false; false; true |] ~time_bound:4.0 ~reward_bound:8.0
      ~samples:60_000
  in
  if
    not
      (Sim.Estimate.contains iv values.{0}
      || Float.abs (values.{0} -. iv.Sim.Estimate.mean) < 5e-3)
  then
    Alcotest.failf "checker %.5f outside MC %.5f +- %.5f" values.{0}
      iv.Sim.Estimate.mean iv.Sim.Estimate.half_width

(* Engines + simulation agree on random impulse models.

   Discretisation errs to first order in its step, and at d = 1/128 that
   error can exceed any fixed slack (0.011 on seed 5775's problem).  So
   its tolerance comes from the engine: the Richardson value
   2 v(d/2) - v(d) cancels the first-order term, and |v(d/2) - v(d)|,
   the first-order error left in v(d/2), bounds what remains of it.
   Pseudo-Erlang keeps its 0.03.  Both are held to a 99.9% simulation
   interval of Pr{Y_t <= r}.

   Each interval misses the true value one time in a thousand, and a
   sweep over 40 qcheck seeds makes 1,200 comparisons: seed 38 draws
   problem 122, where both engines read 0.41895 (a million paths:
   0.41913 +- 0.00162) but the 20,000 paths read 0.43105, 3.4 sigma off.
   So a miss gets a second look: 80,000 fresh paths, whose 99.9%
   interval is half as wide.  An engine error large enough for the
   first interval to catch fails the second as well; a chance miss
   repeats one time in a thousand. *)
let prop_impulse_engines_agree =
  QCheck2.Test.make ~count:15 ~name:"impulse engines vs simulation"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let p =
        Models.Random_mrm.generate_problem ~seed:(Int64.of_int seed)
          Models.Random_mrm.with_impulses
      in
      let d =
        let limit = Perf.Discretization.max_stable_step p in
        let d = ref (1.0 /. 16.0) in
        while !d > limit || !d > 1.0 /. 128.0 do
          d := !d /. 2.0
        done;
        !d
      in
      let tv = Perf.Discretization.solve ~step:d p in
      let tv_half = Perf.Discretization.solve ~step:(d /. 2.0) p in
      let richardson = (2.0 *. tv_half) -. tv in
      let tv_error = Float.abs (tv_half -. tv) in
      let erlang = Perf.Erlang_approx.solve ~phases:512 p in
      let init =
        let found = ref 0 in
        Array.iteri (fun i v -> if v > 0.5 then found := i) (Linalg.Vec.to_array p.Perf.Problem.init);
        !found
      in
      let rng = Sim.Rng.create ~seed:(Int64.of_int (seed + 31)) in
      let simulate samples =
        Sim.Estimate.reward_bounded_reachability ~confidence:0.999 rng
          p.Perf.Problem.mrm ~init ~goal:p.Perf.Problem.goal
          ~time_bound:p.Perf.Problem.time_bound
          ~reward_bound:p.Perf.Problem.reward_bound ~samples
      in
      let agrees iv =
        let near value error =
          Float.abs (value -. iv.Sim.Estimate.mean)
          <= error +. iv.Sim.Estimate.half_width
        in
        near richardson tv_error && near erlang 0.03
      in
      let first = simulate 20_000 in
      agrees first
      ||
      let second = simulate 80_000 in
      agrees second
      || QCheck2.Test.fail_reportf
           "richardson %.5f (+- %.5f: tv %.5f at d = %g, %.5f at d/2) and \
            erlang-512 %.5f (+- 0.03) against MC %.5f +- %.5f, then %.5f +- \
            %.5f (seed %d)"
           richardson tv_error tv d tv_half erlang first.Sim.Estimate.mean
           first.Sim.Estimate.half_width second.Sim.Estimate.mean
           second.Sim.Estimate.half_width seed)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "impulse rewards",
    [ Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "discretisation closed form" `Quick
        test_discretisation_closed_form;
      Alcotest.test_case "erlang closed form" `Quick test_erlang_closed_form;
      Alcotest.test_case "mixed rate and impulse" `Quick test_mixed_rewards;
      Alcotest.test_case "simulator and expectations" `Quick
        test_simulator_and_expectations;
      Alcotest.test_case "rejections" `Quick test_rejections;
      Alcotest.test_case "Theorem 1 without amalgamation" `Quick
        test_reduced_keeps_states;
      Alcotest.test_case "checker with impulses" `Quick
        test_checker_with_impulses;
      q prop_impulse_engines_agree ] )
