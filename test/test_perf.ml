(* Tests for the Theorem 1 reduction and the three Section 4 engines,
   against closed forms, against each other, and against simulation. *)

let check_close ?(tol = 1e-9) what expected actual =
  if not (Numerics.Float_utils.approx_eq ~rel:tol ~abs:tol expected actual)
  then Alcotest.failf "%s: expected %.17g, got %.17g" what expected actual

(* A minimal nontrivial problem with a closed form:

     s0 (reward 1) --rate lam--> goal (reward 0, absorbing)

   Pr{Y_t <= r, X_t = goal} = Pr{jump before min(t, r)}
                            = 1 - exp(-lam * min(t, r))
   (the jump must happen before t, and the reward earned until the jump is
   the sojourn itself, so it must also not exceed r). *)
let single_jump_problem ~lam ~t ~r =
  let m =
    Markov.Mrm.of_transitions ~n:2 [ (0, 1, lam) ] ~rewards:[| 1.0; 0.0 |]
  in
  Perf.Problem.of_initial_state m ~init:0 ~goal:[| false; true |]
    ~time_bound:t ~reward_bound:r

let single_jump_exact ~lam ~t ~r = 1.0 -. Float.exp (-.lam *. Float.min t r)

let test_problem_validation () =
  let m = Markov.Mrm.of_transitions ~n:2 [ (0, 1, 1.0) ] ~rewards:[| 1.0; 0.0 |] in
  Alcotest.check_raises "bad init"
    (Invalid_argument "Problem.make: init is not a distribution") (fun () ->
      ignore
        (Perf.Problem.make m ~init:(Linalg.Vec.of_array [| 0.5; 0.6 |]) ~goal:[| true; true |]
           ~time_bound:1.0 ~reward_bound:1.0));
  Alcotest.check_raises "zero time"
    (Invalid_argument "Problem.make: time bound must be positive and finite")
    (fun () ->
      ignore
        (Perf.Problem.of_initial_state m ~init:0 ~goal:[| true; true |]
           ~time_bound:0.0 ~reward_bound:1.0));
  Alcotest.check_raises "negative reward bound"
    (Invalid_argument
       "Problem.make: reward bound must be non-negative and finite")
    (fun () ->
      ignore
        (Perf.Problem.of_initial_state m ~init:0 ~goal:[| true; true |]
           ~time_bound:1.0 ~reward_bound:(-1.0)));
  let p =
    Perf.Problem.of_initial_state m ~init:0 ~goal:[| false; true |]
      ~time_bound:2.0 ~reward_bound:3.0
  in
  Alcotest.(check bool) "trivial: r >= rho_max t" true
    (Perf.Problem.reward_trivially_satisfied p);
  let p =
    Perf.Problem.of_initial_state m ~init:0 ~goal:[| false; true |]
      ~time_bound:2.0 ~reward_bound:1.0
  in
  Alcotest.(check bool) "nontrivial" false
    (Perf.Problem.reward_trivially_satisfied p);
  Alcotest.check_raises "row out of range"
    (Invalid_argument "Sericola.solve_rows: row out of range") (fun () ->
      ignore (Perf.Sericola.solve_rows p ~rows:[| 0; 2 |]))

let test_reduced_case_study () =
  let m = Models.Adhoc.mrm () in
  let l = Models.Adhoc.labeling () in
  let idle = Markov.Labeling.sat l "call_idle" in
  let doze = Markov.Labeling.sat l "doze" in
  let phi = Array.mapi (fun i a -> a || doze.(i)) idle in
  let psi = Markov.Labeling.sat l "call_initiated" in
  let red = Perf.Reduced.reduce m ~phi ~psi in
  (* The paper: "a reduced MRM M' with three transient and two absorbing
     states". *)
  Alcotest.(check int) "five states" 5 (Markov.Mrm.n_states red.Perf.Reduced.mrm);
  Alcotest.(check bool) "amalgamated" true red.Perf.Reduced.amalgamated;
  let chain = Markov.Mrm.ctmc red.Perf.Reduced.mrm in
  let goal_state = 3 and fail_state = 4 in
  Alcotest.(check (list bool)) "goal mask"
    [ false; false; false; true; false ]
    (Array.to_list red.Perf.Reduced.goal);
  Alcotest.(check bool) "goal absorbing" true
    (Markov.Ctmc.is_absorbing chain goal_state);
  Alcotest.(check bool) "fail absorbing" true
    (Markov.Ctmc.is_absorbing chain fail_state);
  check_close "goal reward zero" 0.0
    (Markov.Mrm.reward red.Perf.Reduced.mrm goal_state);
  (* Transient rewards: idle+idle 100, idle+active 200, doze 20. *)
  let rewards =
    Array.sub (Linalg.Vec.to_array (Markov.Mrm.rewards red.Perf.Reduced.mrm)) 0 3
    |> Array.to_list |> List.sort compare
  in
  Alcotest.(check (list (float 0.0))) "transient rewards" [ 20.0; 100.0; 200.0 ]
    rewards;
  (* psi states map to GOAL, non-phi states to FAIL. *)
  Array.iteri
    (fun s target ->
      if psi.(s) then Alcotest.(check int) "psi to GOAL" goal_state target
      else if not phi.(s) then
        Alcotest.(check int) "bad to FAIL" fail_state target)
    red.Perf.Reduced.state_map

let engines ~fine =
  [ ("sericola", fun p -> Perf.Sericola.solve ~epsilon:1e-12 p);
    ( "erlang",
      fun p -> Perf.Erlang_approx.solve ~phases:(if fine then 2048 else 256) p );
    ( "discretise",
      fun p ->
        (* Random problems have bounds on a 1/16 grid; pick the largest
           power-of-two refinement that is stable and fine enough. *)
        let limit = Perf.Discretization.max_stable_step p in
        let target = if fine then 1.0 /. 1024.0 else 1.0 /. 256.0 in
        let d = ref (1.0 /. 16.0) in
        while !d > limit || !d > target do
          d := !d /. 2.0
        done;
        Perf.Discretization.solve ~step:!d p ) ]

let test_single_jump_closed_form () =
  List.iter
    (fun (t, r) ->
      let lam = 0.8 in
      let exact = single_jump_exact ~lam ~t ~r in
      let p = single_jump_problem ~lam ~t ~r in
      check_close ~tol:1e-9 (Printf.sprintf "sericola t=%g r=%g" t r) exact
        (Perf.Sericola.solve ~epsilon:1e-13 p);
      check_close ~tol:2e-3 (Printf.sprintf "erlang t=%g r=%g" t r) exact
        (Perf.Erlang_approx.solve ~phases:8192 p);
      if Float.rem t r < 1e-9 || Float.rem r t < 1e-9 then begin
        (* Discretisation needs a common grid for t and r. *)
        let d = Float.min t r /. 4096.0 in
        check_close ~tol:2e-3 (Printf.sprintf "discretise t=%g r=%g" t r)
          exact
          (Perf.Discretization.solve ~step:d p)
      end)
    [ (2.0, 1.0); (1.0, 2.0); (3.0, 3.0); (0.5, 4.0) ]

(* Two states a (reward 0) --lam--> b (reward 1, absorbing):
   H_ab(t, r) = Pr{Y_t > r, X_t = b | X_0 = a} = 1 - exp(-lam (t - r))
   for 0 <= r < t (jump must happen before t - r to accumulate more
   than r at rate 1 in b). *)
let test_joint_matrix_closed_form () =
  let lam = 1.3 and t = 2.0 in
  let m =
    Markov.Mrm.of_transitions ~n:2 [ (0, 1, lam) ] ~rewards:[| 0.0; 1.0 |]
  in
  List.iter
    (fun r ->
      let h = Perf.Sericola.joint_matrix ~epsilon:1e-13 m ~t ~r in
      check_close ~tol:1e-10 (Printf.sprintf "H_ab r=%g" r)
        (1.0 -. Float.exp (-.lam *. (t -. r)))
        h.(0).(1);
      check_close ~tol:1e-10 "H_aa" 0.0 h.(0).(0);
      (* From b itself: Y_t = t > r always. *)
      check_close ~tol:1e-10 "H_bb" 1.0 h.(1).(1))
    [ 0.0; 0.5; 1.0; 1.9 ];
  (* r above rho_max * t: H = 0. *)
  let h = Perf.Sericola.joint_matrix m ~t ~r:(t +. 1.0) in
  check_close "beyond max" 0.0 h.(0).(1)

(* Vector solver vs full-matrix solver on a nontrivial model. *)
let test_matrix_vs_vector () =
  let m =
    Markov.Mrm.of_transitions ~n:4
      [ (0, 1, 1.0); (1, 2, 2.0); (1, 0, 0.5); (2, 3, 1.5); (0, 3, 0.2) ]
      ~rewards:[| 1.0; 3.0; 2.0; 0.0 |]
  in
  let t = 1.7 and r = 2.5 in
  let goal = [| false; false; true; true |] in
  let p =
    Perf.Problem.of_initial_state m ~init:0 ~goal ~time_bound:t ~reward_bound:r
  in
  let d = Perf.Sericola.solve_detailed ~epsilon:1e-13 p in
  let h = Perf.Sericola.joint_matrix ~epsilon:1e-13 m ~t ~r in
  let tail_from_matrix = h.(0).(2) +. h.(0).(3) in
  check_close ~tol:1e-10 "tail matches" d.Perf.Sericola.tail_mass
    tail_from_matrix

let test_erlang_expansion_structure () =
  let p = single_jump_problem ~lam:1.0 ~t:1.0 ~r:2.0 in
  let chain = Perf.Erlang_approx.expanded_ctmc p ~phases:4 in
  (* 2 states x 4 phases + sink. *)
  Alcotest.(check int) "expanded size" 9 (Markov.Ctmc.n_states chain);
  (* State (s0, phase0): chain rate to (goal, phase0) and meter rate
     rho * k / r = 1 * 4 / 2 = 2 to (s0, phase1). *)
  check_close "chain move" 1.0 (Markov.Ctmc.rate chain 0 4);
  check_close "meter move" 2.0 (Markov.Ctmc.rate chain 0 1);
  (* Goal has reward zero: no meter transitions. *)
  check_close "goal exit" 0.0 (Markov.Ctmc.exit_rate chain 4);
  (* Last phase feeds the sink. *)
  check_close "sink feed" 2.0 (Markov.Ctmc.rate chain 3 8);
  Alcotest.check_raises "zero reward bound"
    (Invalid_argument "Erlang_approx: the reward bound must be positive")
    (fun () ->
      ignore
        (Perf.Erlang_approx.expanded_ctmc
           (single_jump_problem ~lam:1.0 ~t:1.0 ~r:0.0)
           ~phases:4))

let test_erlang_converges_from_below () =
  (* On the case study the paper observes monotone convergence from below
     in the number of phases. *)
  let p = single_jump_problem ~lam:0.9 ~t:3.0 ~r:1.5 in
  let values =
    List.map (fun k -> Perf.Erlang_approx.solve ~phases:k p) [ 1; 4; 16; 64; 256 ]
  in
  let exact = single_jump_exact ~lam:0.9 ~t:3.0 ~r:1.5 in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-12 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone in phases" true (monotone values);
  List.iter
    (fun v ->
      if v > exact +. 1e-9 then
        Alcotest.failf "erlang overshoots: %.12g > %.12g" v exact)
    values

let test_discretization_validation () =
  let p = single_jump_problem ~lam:2.0 ~t:1.0 ~r:0.5 in
  check_close "stability limit" 0.5 (Perf.Discretization.max_stable_step p);
  (try
     ignore (Perf.Discretization.solve ~step:0.75 p);
     Alcotest.fail "accepted unstable step"
   with Invalid_argument _ -> ());
  (try
     ignore (Perf.Discretization.solve ~step:0.3 p);
     Alcotest.fail "accepted non-dividing step"
   with Invalid_argument _ -> ());
  let m =
    Markov.Mrm.of_transitions ~n:2 [ (0, 1, 1.0) ] ~rewards:[| 0.5; 0.0 |]
  in
  let p2 =
    Perf.Problem.of_initial_state m ~init:0 ~goal:[| false; true |]
      ~time_bound:1.0 ~reward_bound:0.25
  in
  (try
     ignore (Perf.Discretization.solve ~step:0.125 p2);
     Alcotest.fail "accepted fractional rewards"
   with Invalid_argument _ -> ())

let test_discretization_error_halves () =
  (* Table 4's pattern: halving d roughly halves the error. *)
  let p = single_jump_problem ~lam:1.0 ~t:2.0 ~r:1.0 in
  let exact = single_jump_exact ~lam:1.0 ~t:2.0 ~r:1.0 in
  let err d = Float.abs (Perf.Discretization.solve ~step:d p -. exact) in
  let e1 = err (1.0 /. 64.0) and e2 = err (1.0 /. 128.0) in
  let ratio = e1 /. e2 in
  if ratio < 1.5 || ratio > 3.0 then
    Alcotest.failf "error ratio %.3f not ~2 (e1=%g e2=%g)" ratio e1 e2

let test_engine_dispatch () =
  let p = single_jump_problem ~lam:1.0 ~t:1.0 ~r:5.0 in
  (* Reward trivially satisfied: every engine short-circuits to transient
     analysis, including pseudo-Erlang with r = 0-like corner cases. *)
  let exact = 1.0 -. Float.exp (-1.0) in
  List.iter
    (fun spec ->
      check_close ~tol:1e-10
        (Format.asprintf "%a" Perf.Engine.pp_spec spec)
        exact
        (Perf.Engine.solve spec p))
    [ Perf.Engine.Occupation_time { epsilon = 1e-12 };
      Perf.Engine.Pseudo_erlang { phases = 4 };
      Perf.Engine.Discretize { step = 0.25 } ];
  Alcotest.(check string) "names" "occupation-time"
    (Perf.Engine.name Perf.Engine.default)

let test_until_probabilities_via () =
  (* On the case study, the per-state vector: psi states 1, fail states 0,
     phi states the engine value. *)
  let m = Models.Adhoc.mrm () in
  let l = Models.Adhoc.labeling () in
  let idle = Markov.Labeling.sat l "call_idle" in
  let doze = Markov.Labeling.sat l "doze" in
  let phi = Array.mapi (fun i a -> a || doze.(i)) idle in
  let psi = Markov.Labeling.sat l "call_initiated" in
  let probs =
    Perf.Reduced.until_probabilities_via
      (Perf.Sericola.solve ~epsilon:1e-10)
      m ~phi ~psi ~time_bound:24.0 ~reward_bound:600.0
  in
  Array.iteri
    (fun s p ->
      if psi.(s) then check_close (Printf.sprintf "psi %d" s) 1.0 p
      else if not phi.(s) then check_close (Printf.sprintf "fail %d" s) 0.0 p
      else if p <= 0.0 || p >= 1.0 then
        Alcotest.failf "phi state %d has degenerate probability %g" s p)
    (Linalg.Vec.to_array probs);
  check_close ~tol:1e-7 "initial state value" 0.49699673
    probs.{Models.Adhoc.initial_state}

let test_solve_many () =
  (* The shared-recursion curve must agree with one-at-a-time solves,
     across bands and including degenerate bounds. *)
  let c = Models.Multiprocessor.default in
  let t = 100.0 in
  let bounds = [| 0.0; 50.0; 150.0; 290.0; 299.0; 299.9; 300.0; 1000.0 |] in
  let p = Models.Multiprocessor.performability c ~t ~r:1.0 in
  let curve = Perf.Sericola.solve_many ~epsilon:1e-11 p ~reward_bounds:bounds in
  Array.iteri
    (fun j r ->
      let single =
        Perf.Sericola.solve ~epsilon:1e-11
          (Models.Multiprocessor.performability c ~t ~r)
      in
      check_close ~tol:1e-9 (Printf.sprintf "r=%g" r) single curve.(j))
    bounds;
  (* The curve is a cdf: monotone, ending at 1 for r >= rho_max t. *)
  for j = 1 to Array.length bounds - 1 do
    if curve.(j) < curve.(j - 1) -. 1e-12 then
      Alcotest.failf "curve not monotone at %g" bounds.(j)
  done;
  check_close "total mass" 1.0 curve.(Array.length bounds - 1)

(* ---------------- cross-engine property ---------------------------- *)

let prop_engines_agree =
  QCheck2.Test.make ~count:25 ~name:"three engines agree on random MRMs"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let p =
        Models.Random_mrm.generate_problem ~seed:(Int64.of_int seed)
          Models.Random_mrm.default
      in
      let reference = Perf.Sericola.solve ~epsilon:1e-12 p in
      List.for_all
        (fun (name, solve) ->
          let v = solve p in
          let ok = Float.abs (v -. reference) <= 0.01 in
          if not ok then
            QCheck2.Test.fail_reportf
              "engine %s: %.8f vs sericola %.8f (seed %d)" name v reference
              seed
          else true)
        (engines ~fine:false))

let prop_sericola_vs_simulation =
  QCheck2.Test.make ~count:10 ~name:"sericola within Monte-Carlo interval"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let p =
        Models.Random_mrm.generate_problem ~seed:(Int64.of_int seed)
          Models.Random_mrm.default
      in
      let reference = Perf.Sericola.solve ~epsilon:1e-12 p in
      (* Point-mass initial state by construction. *)
      let init =
        let found = ref 0 in
        Array.iteri (fun i v -> if v > 0.5 then found := i) (Linalg.Vec.to_array p.Perf.Problem.init);
        !found
      in
      let rng = Sim.Rng.create ~seed:(Int64.of_int (seed + 99)) in
      let iv =
        Sim.Estimate.reward_bounded_reachability ~confidence:0.999 rng
          p.Perf.Problem.mrm ~init ~goal:p.Perf.Problem.goal
          ~time_bound:p.Perf.Problem.time_bound
          ~reward_bound:p.Perf.Problem.reward_bound ~samples:20_000
      in
      (* The normal-approximation interval degenerates when every sample
         hits (p near 0 or 1); allow a small absolute slack there. *)
      let ok =
        Sim.Estimate.contains iv reference
        || Float.abs (reference -. iv.Sim.Estimate.mean) <= 5e-4
      in
      if not ok then
        QCheck2.Test.fail_reportf
          "sericola %.6f outside MC %.6f +- %.6f (seed %d)" reference
          iv.Sim.Estimate.mean iv.Sim.Estimate.half_width seed
      else true)

(* One occupation-time recursion answers every row of a problem, and
   the other engines loop over the rows: either way [Engine.solve_rows]
   must return, bit for bit, what [Engine.solve] returns from each row's
   unit initial distribution.  Half the cases lift the reward bound out
   of reach, which takes the transient shortcut row by row. *)
let prop_solve_rows_bit_identical =
  QCheck2.Test.make ~count:25
    ~name:"solve_rows equals per-row solves bitwise, every engine"
    QCheck2.Gen.(
      triple (int_range 0 10_000) bool
        (list_size (int_range 1 8) (int_range 0 1_000)))
    (fun (seed, unbounded, rows) ->
      let p =
        Models.Random_mrm.generate_problem ~seed:(Int64.of_int seed)
          Models.Random_mrm.default
      in
      let mrm = p.Perf.Problem.mrm and t = p.Perf.Problem.time_bound in
      let p =
        if not unbounded then p
        else
          Perf.Problem.make mrm ~init:p.Perf.Problem.init
            ~goal:p.Perf.Problem.goal ~time_bound:t
            ~reward_bound:((Markov.Mrm.max_reward mrm *. t) +. 1.0)
      in
      let n = Markov.Mrm.n_states mrm in
      let rows = Array.of_list (List.map (fun b -> b mod n) rows) in
      let step =
        let limit = Perf.Discretization.max_stable_step p in
        let d = ref (1.0 /. 16.0) in
        while !d > limit || !d > 1.0 /. 64.0 do
          d := !d /. 2.0
        done;
        !d
      in
      let bits = Array.map Int64.bits_of_float in
      let show f a = String.concat "; " (Array.to_list (Array.map f a)) in
      List.for_all
        (fun spec ->
          let together = Perf.Engine.solve_rows spec p ~rows in
          let apart =
            Array.map
              (fun b -> Perf.Engine.solve spec (Perf.Problem.from_state p b))
              rows
          in
          bits together = bits apart
          || QCheck2.Test.fail_reportf
               "%s: rows [%s] give [%s], per-row [%s] (seed %d)"
               (Perf.Engine.name spec) (show string_of_int rows)
               (show (Printf.sprintf "%h") together)
               (show (Printf.sprintf "%h") apart) seed)
        [ Perf.Engine.Occupation_time { epsilon = 1e-10 };
          Perf.Engine.Pseudo_erlang { phases = 64 };
          Perf.Engine.Discretize { step };
          Perf.Engine.Windowed { epsilon = 1e-6 } ])

(* Pr{Y_t <= r, X_t in goal} is monotone in r, and — because goal states
   are absorbing with zero reward in the Theorem 1 normal form — also in
   t.  Exercises band crossings in the Sericola recursion. *)
let prop_sericola_monotone =
  QCheck2.Test.make ~count:25 ~name:"sericola monotone in r and t"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let p =
        Models.Random_mrm.generate_problem ~seed:(Int64.of_int seed)
          Models.Random_mrm.default
      in
      let value ~t ~r =
        Perf.Sericola.solve ~epsilon:1e-11
          (Perf.Problem.make p.Perf.Problem.mrm ~init:p.Perf.Problem.init
             ~goal:p.Perf.Problem.goal ~time_bound:t ~reward_bound:r)
      in
      let t = p.Perf.Problem.time_bound and r = p.Perf.Problem.reward_bound in
      let base = value ~t ~r in
      let more_budget = value ~t ~r:(r *. 1.5) in
      let more_time = value ~t:(t *. 1.5) ~r in
      if more_budget < base -. 1e-9 then
        QCheck2.Test.fail_reportf "not monotone in r: %.9f -> %.9f (seed %d)"
          base more_budget seed
      else if more_time < base -. 1e-9 then
        QCheck2.Test.fail_reportf "not monotone in t: %.9f -> %.9f (seed %d)"
          base more_time seed
      else true)

(* Sericola's telemetry reports the Poisson mass left out by the series
   truncation; it must honour the requested a-priori bound, and the
   recorder must not perturb the computed value. *)
let prop_achieved_epsilon =
  QCheck2.Test.make ~count:25
    ~name:"sericola telemetry: achieved epsilon honours the request"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 4 10))
    (fun (seed, exponent) ->
      let epsilon = Float.pow 10.0 (-.float_of_int exponent) in
      let p =
        Models.Random_mrm.generate_problem ~seed:(Int64.of_int seed)
          Models.Random_mrm.default
      in
      let telemetry = Telemetry.create () in
      let with_tel = Perf.Sericola.solve ~epsilon ~telemetry p in
      let without = Perf.Sericola.solve ~epsilon p in
      if with_tel <> without then
        QCheck2.Test.fail_reportf
          "telemetry perturbed the value: %.17g vs %.17g (seed %d)" with_tel
          without seed
      else
        match Telemetry.gauge telemetry "sericola.achieved_epsilon" with
        | None ->
          (* Degenerate bound: the solve short-circuited to transient
             analysis and the truncation gauge does not apply. *)
          Perf.Problem.reward_trivially_satisfied p
          || QCheck2.Test.fail_reportf
               "no achieved_epsilon on a non-degenerate problem (seed %d)"
               seed
        | Some achieved ->
          if achieved <= epsilon *. (1.0 +. 1e-6) +. 1e-15 then true
          else
            QCheck2.Test.fail_reportf
              "achieved epsilon %.3g exceeds requested %.3g (seed %d)"
              achieved epsilon seed)

(* The ad hoc Q3 at t = 6 has q = 117, where the Poisson terms sum to
   1 - 9.7e-14: an epsilon of 1e-14 lies below that rounding floor.  The
   truncation point normalises by the summed mass, so the series stops
   at N = 209 instead of the pmf's underflow point (719), and the
   achieved epsilon it reports honours the request. *)
let test_epsilon_below_rounding_floor () =
  let sat = Markov.Labeling.sat (Models.Adhoc.labeling ()) in
  let phi = Array.map2 ( || ) (sat "call_idle") (sat "doze") in
  let p =
    Perf.Reduced.problem
      (Perf.Reduced.reduce (Models.Adhoc.mrm ()) ~phi ~psi:(sat "call_initiated"))
      ~init:(Linalg.Vec.unit 9 Models.Adhoc.initial_state)
      ~time_bound:6.0 ~reward_bound:600.0
  in
  let telemetry = Telemetry.create () in
  ignore (Perf.Sericola.solve ~epsilon:1e-14 ~telemetry p : float);
  Alcotest.(check (option int)) "layers" (Some 210)
    (Telemetry.counter telemetry "sericola.layers");
  match Telemetry.gauge telemetry "sericola.achieved_epsilon" with
  | Some achieved when achieved <= 1e-14 -> ()
  | Some achieved -> Alcotest.failf "achieved epsilon %g above 1e-14" achieved
  | None -> Alcotest.fail "no achieved epsilon recorded"

(* Differential battery with knob-derived tolerances: each approximate
   engine must sit within the error its own convergence knob predicts of
   the a-priori-bounded reference.  Erlang-k errs like 1/sqrt(k); the
   discretisation is first order in d with constant ~ the uniformisation
   rate. *)
let prop_knob_derived_tolerances =
  QCheck2.Test.make ~count:25
    ~name:"engine error bounded by its convergence knob"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let p =
        Models.Random_mrm.generate_problem ~seed:(Int64.of_int seed)
          Models.Random_mrm.default
      in
      let reference = Perf.Sericola.solve ~epsilon:1e-12 p in
      let phases = 256 in
      let erlang = Perf.Erlang_approx.solve ~phases p in
      let erlang_tol = 1.0 /. Float.sqrt (float_of_int phases) in
      if Float.abs (erlang -. reference) > erlang_tol then
        QCheck2.Test.fail_reportf
          "erlang k=%d: %.8f vs %.8f exceeds 1/sqrt(k) = %.4f (seed %d)"
          phases erlang reference erlang_tol seed
      else begin
        let limit = Perf.Discretization.max_stable_step p in
        let d = ref (1.0 /. 16.0) in
        while !d > limit || !d > 1.0 /. 256.0 do
          d := !d /. 2.0
        done;
        let disc = Perf.Discretization.solve ~step:!d p in
        let rate =
          Markov.Ctmc.max_exit_rate (Markov.Mrm.ctmc p.Perf.Problem.mrm)
        in
        let disc_tol =
          10.0 *. Float.max 1.0 rate *. !d *. p.Perf.Problem.time_bound
        in
        if Float.abs (disc -. reference) > disc_tol then
          QCheck2.Test.fail_reportf
            "discretise d=%g: %.8f vs %.8f exceeds %g (seed %d)" !d disc
            reference disc_tol seed
        else true
      end)

(* On dualizable models, the P2 recipe (duality + transient) and the P3
   engines with a vacuously large time bound must agree. *)
let prop_duality_vs_sericola =
  QCheck2.Test.make ~count:15 ~name:"P2 duality agrees with Sericola"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let p =
        Models.Random_mrm.generate_problem ~seed:(Int64.of_int seed)
          { Models.Random_mrm.default with
            Models.Random_mrm.max_reward = 3 }
      in
      let m = p.Perf.Problem.mrm in
      QCheck2.assume (Markov.Duality.is_dualizable m);
      let r = p.Perf.Problem.reward_bound in
      let via_dual =
        Markov.Transient.reachability ~epsilon:1e-12
          (Markov.Mrm.ctmc (Markov.Duality.dual m))
          ~init:p.Perf.Problem.init ~goal:p.Perf.Problem.goal ~t:r
      in
      (* Dualizable integral rewards mean transient states earn at rate
         >= 1, so a qualifying goal hit happens by time r and the value
         is constant for t > r: t = r + 1 makes the time bound vacuous. *)
      let via_sericola =
        Perf.Sericola.solve ~epsilon:1e-12
          (Perf.Problem.make m ~init:p.Perf.Problem.init
             ~goal:p.Perf.Problem.goal ~time_bound:(r +. 1.0) ~reward_bound:r)
      in
      if Float.abs (via_dual -. via_sericola) > 1e-5 then
        QCheck2.Test.fail_reportf "dual %.8f vs sericola %.8f (seed %d)"
          via_dual via_sericola seed
      else true)

(* ---------------- the side choice --------------------------------- *)

(* [Engine] solves an occupation-time problem on its dual when the model
   is dualizable, every goal state is absorbing with reward 0, r > 0 and
   q~ = r * max E(s)/rho(s) over non-absorbing states is below
   q = t * max E(s).  Recomputed here from that statement, as the
   oracle the engine's [sericola.dualised] counter is checked against. *)
let expect_dual (p : Perf.Problem.t) =
  let m = p.Perf.Problem.mrm in
  let c = Markov.Mrm.ctmc m in
  let states = List.init (Markov.Mrm.n_states m) Fun.id in
  let transient = List.filter (fun s -> not (Markov.Ctmc.is_absorbing c s)) states in
  p.Perf.Problem.reward_bound > 0.0
  && Markov.Duality.is_dualizable m
  && List.for_all
       (fun s ->
         (not p.Perf.Problem.goal.(s))
         || (Markov.Ctmc.is_absorbing c s && Markov.Mrm.reward m s = 0.0))
       states
  && p.Perf.Problem.reward_bound
     *. List.fold_left
          (fun acc s ->
            Float.max acc (Markov.Ctmc.exit_rate c s /. Markov.Mrm.reward m s))
          0.0 transient
     < p.Perf.Problem.time_bound *. Markov.Ctmc.max_exit_rate c

let dualised tel =
  Option.value ~default:0 (Telemetry.counter tel "sericola.dualised")

(* A random problem whose non-absorbing states all earn a positive
   reward, so its model is dualizable, with the goal in one of three
   shapes: the Theorem 1 form (absorbing, reward 0), a goal the chain
   may leave, or an absorbing goal that earns reward.  Only the first
   has its dual's answer. *)
type goal_shape = Theorem1 | Leavable | Earning

let side_problem ~seed shape =
  let m = Models.Random_mrm.generate ~seed Models.Random_mrm.default in
  let n = Markov.Mrm.n_states m in
  let rng = Sim.Rng.create ~seed:(Int64.add seed 0x5DEECE66DL) in
  let goal = Array.init n (fun _ -> Sim.Rng.float rng < 0.3) in
  if not (Array.exists Fun.id goal) then
    goal.(Sim.Rng.int rng ~bound:n) <- true;
  let chain =
    match shape with
    | Leavable -> Markov.Mrm.ctmc m
    | Theorem1 | Earning ->
      Markov.Transform.make_absorbing (Markov.Mrm.ctmc m)
        ~absorb:(Array.copy goal)
  in
  let rewards =
    Array.init n (fun s ->
        if shape = Theorem1 && goal.(s) then 0.0
        else float_of_int (1 + Sim.Rng.int rng ~bound:4))
  in
  let m = Markov.Mrm.make chain ~rewards in
  let t = 0.5 +. (Sim.Rng.float rng *. 3.5) in
  let r = (0.1 +. (Sim.Rng.float rng *. 0.8)) *. Markov.Mrm.max_reward m *. t in
  let init =
    match List.filter (fun s -> not goal.(s)) (List.init n Fun.id) with
    | [] -> 0
    | free -> List.nth free (Sim.Rng.int rng ~bound:(List.length free))
  in
  Perf.Problem.of_initial_state m ~init ~goal ~time_bound:t ~reward_bound:r

(* Both engine entry points against the primal kernel: within 2 epsilon
   (each side's truncation error is at most epsilon) when the engine
   took the dual, bit for bit when it kept the problem's own side — and
   it takes the dual exactly when the rule says so. *)
let prop_side_choice =
  QCheck2.Test.make ~count:40
    ~name:"side choice: engine agrees with the primal kernel"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 3))
    (fun (seed, pick) ->
      let shape =
        match pick with 0 | 1 -> Theorem1 | 2 -> Leavable | _ -> Earning
      in
      let epsilon = 1e-9 in
      let p = side_problem ~seed:(Int64.of_int seed) shape in
      let rows = Array.init (Markov.Mrm.n_states p.Perf.Problem.mrm) Fun.id in
      let spec = Perf.Engine.Occupation_time { epsilon } in
      let tel = Telemetry.create () in
      let one = Perf.Engine.solve ~telemetry:tel spec p in
      let all = Perf.Engine.solve_rows ~telemetry:tel spec p ~rows in
      let primal_one = Perf.Sericola.solve ~epsilon p in
      let primal_all = Perf.Sericola.solve_rows ~epsilon p ~rows in
      let dual = expect_dual p in
      let agree a b =
        if dual then Float.abs (a -. b) <= 2.0 *. epsilon
        else Int64.bits_of_float a = Int64.bits_of_float b
      in
      if shape <> Theorem1 && dual then
        QCheck2.Test.fail_reportf "seed %d: the rule accepted a non-Theorem 1 goal"
          seed
      else if dualised tel <> (if dual then 2 else 0) then
        QCheck2.Test.fail_reportf
          "seed %d: %d dual solves recorded, the rule says %b" seed
          (dualised tel) dual
      else if not (agree one primal_one) then
        QCheck2.Test.fail_reportf "seed %d: solve %h, primal %h (dual %b)" seed
          one primal_one dual
      else
        Array.for_all2 agree all primal_all
        || QCheck2.Test.fail_reportf
             "seed %d: solve_rows [%s], primal [%s] (dual %b)" seed
             (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") all)))
             (String.concat "; "
                (Array.to_list (Array.map (Printf.sprintf "%h") primal_all)))
             dual)

(* The rule's decisions on the check-cold slots and its edges, read from
   the [sericola.dualised] counter of a Checker run. *)
let test_side_choice_decisions () =
  let runs mrm labeling text =
    let tel = Telemetry.create () in
    let ctx = Checker.make ~telemetry:tel mrm labeling in
    ignore (Checker.eval_query ctx (Logic.Parser.query text));
    dualised tel
  in
  let adhoc = Models.Adhoc.mrm () and labels = Models.Adhoc.labeling () in
  let check name want got = Alcotest.(check bool) name want (got > 0) in
  (* q = 468 against q~ = 117, and q = 174 against q~ = 34.08. *)
  check "ad hoc Q3 goes dual" true
    (runs adhoc labels
       "P=? ( (call_idle | doze) U[t<=24][r<=600] call_initiated )");
  check "ad hoc incoming goes dual" true
    (runs adhoc labels "P=? ( !call_active U[t<=0.4][r<=16] call_incoming )");
  (* q = 154.5 against q~ = 175.7, and q = 28.6 against q~ = 66. *)
  let c = Models.Cluster.default in
  check "cluster stays primal" false
    (runs (Models.Cluster.mrm c) (Models.Cluster.labeling c)
       "P=? ( available U[t<=600][r<=11000] down )");
  let mp =
    { Models.Multiprocessor.n_processors = 9; failure_rate = 0.2;
      repair_rate = 1.0; capacity = 8; throughput_per_processor = 1.0 }
  in
  check "9-processor tracked stays primal" false
    (runs
       (Models.Multiprocessor.tracked_mrm mp)
       (Models.Multiprocessor.tracked_labeling mp)
       "P=? ( up U[t<=11][r<=55] down )");
  (* Q3 at t <= 6: q = 6 * 19.5 = 117 = 600 * 0.195 = q~. *)
  check "a tie stays primal" false
    (runs adhoc labels
       "P=? ( (call_idle | doze) U[t<=6][r<=600] call_initiated )");
  check "r = 0 stays primal" false
    (runs adhoc labels "P=? ( (call_idle | doze) U[t<=24][r<=0] call_initiated )");
  (* A transient state without reward has no dual (q = 150, and the
     dual would divide its rates by 0). *)
  let tel = Telemetry.create () in
  let m =
    Markov.Mrm.of_transitions ~n:3 [ (0, 1, 2.0); (1, 2, 3.0) ]
      ~rewards:[| 0.0; 1.0; 0.0 |]
  in
  ignore
    (Perf.Engine.solve ~telemetry:tel Perf.Engine.default
       (Perf.Problem.of_initial_state m ~init:0 ~goal:[| false; false; true |]
          ~time_bound:50.0 ~reward_bound:0.5));
  check "zero reward on a transient state stays primal" false (dualised tel);
  (* Sericola rejects impulse models; the side is chosen before that, and
     an impulse model must not reach the duality transform. *)
  let tel = Telemetry.create () in
  let m = Markov.Mrm.of_transitions ~n:2 [ (0, 1, 2.0) ] ~rewards:[| 1.0; 0.0 |] in
  let m =
    Markov.Mrm.with_impulses m (Linalg.Csr.of_coo ~rows:2 ~cols:2 [ (0, 1, 1.0) ])
  in
  let p =
    Perf.Problem.of_initial_state m ~init:0 ~goal:[| false; true |]
      ~time_bound:4.0 ~reward_bound:0.5
  in
  (match Perf.Engine.solve ~telemetry:tel Perf.Engine.default p with
   | _ -> Alcotest.fail "an impulse model reached a Sericola solve"
   | exception Invalid_argument message ->
     Alcotest.(check bool) "impulse model: Sericola's refusal" true
       (String.starts_with ~prefix:"Sericola.solve" message));
  check "impulse model stays primal" false (dualised tel)

(* Allocation canary for the Bigarray layout overhaul: the transient
   recursions reuse caller-owned scratch, so a full case-study solve
   stays within a fixed minor-heap budget.  The boxed-era implementation
   allocated ~36M minor words for the Sericola solve below (~70x the
   budget); a regression back to boxed inner loops trips this long before
   it would show in wall-clock noise.  Budgets are ~3x the measured
   steady-state cost, far above runtime jitter and far below the boxed
   numbers. *)
let test_allocation_budget () =
  let m = Models.Adhoc.mrm () in
  let l = Models.Adhoc.labeling () in
  let idle = Markov.Labeling.sat l "call_idle" in
  let doze = Markov.Labeling.sat l "doze" in
  let phi = Array.mapi (fun i a -> a || doze.(i)) idle in
  let psi = Markov.Labeling.sat l "call_initiated" in
  let red = Perf.Reduced.reduce m ~phi ~psi in
  let init = Linalg.Vec.unit 9 Models.Adhoc.initial_state in
  let p = Perf.Reduced.problem red ~init ~time_bound:24.0 ~reward_bound:600.0 in
  let minor f =
    ignore (f ());
    let before = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. before
  in
  let check name budget f =
    let words = minor f in
    if words > budget then
      Alcotest.failf "%s allocated %.0f minor words (budget %.0f)" name words
        budget
  in
  check "sericola solve" 1_600_000.0 (fun () ->
      Perf.Sericola.solve ~epsilon:1e-9 p);
  check "discretisation solve" 250_000.0 (fun () ->
      Perf.Discretization.solve ~step:(1.0 /. 64.0) p);
  check "erlang solve" 400_000.0 (fun () ->
      Perf.Erlang_approx.solve ~phases:256 p)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "perf",
    [ Alcotest.test_case "problem validation" `Quick test_problem_validation;
      Alcotest.test_case "Theorem 1 reduction (case study)" `Quick
        test_reduced_case_study;
      Alcotest.test_case "single-jump closed form" `Quick
        test_single_jump_closed_form;
      Alcotest.test_case "joint matrix closed form" `Quick
        test_joint_matrix_closed_form;
      Alcotest.test_case "matrix vs vector solver" `Quick test_matrix_vs_vector;
      Alcotest.test_case "erlang expansion structure" `Quick
        test_erlang_expansion_structure;
      Alcotest.test_case "erlang from below" `Quick
        test_erlang_converges_from_below;
      Alcotest.test_case "discretisation validation" `Quick
        test_discretization_validation;
      Alcotest.test_case "discretisation error halves" `Quick
        test_discretization_error_halves;
      Alcotest.test_case "engine dispatch" `Quick test_engine_dispatch;
      Alcotest.test_case "until probabilities per state" `Quick
        test_until_probabilities_via;
      Alcotest.test_case "solve_many distribution curve" `Quick
        test_solve_many;
      Alcotest.test_case "allocation budgets" `Quick test_allocation_budget;
      Alcotest.test_case "side choice decisions" `Quick
        test_side_choice_decisions;
      Alcotest.test_case "epsilon below the Poisson rounding floor" `Quick
        test_epsilon_below_rounding_floor;
      q prop_engines_agree;
      q prop_solve_rows_bit_identical;
      q prop_achieved_epsilon;
      q prop_knob_derived_tolerances;
      q prop_sericola_vs_simulation;
      q prop_sericola_monotone;
      q prop_duality_vs_sericola;
      q prop_side_choice ] )
