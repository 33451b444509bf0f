(* Unit and property tests for the numerics substrate. *)

let approx = Numerics.Float_utils.approx_eq

let check_close ?(tol = 1e-12) what expected actual =
  let same =
    if Float.is_finite expected then approx ~rel:tol ~abs:tol expected actual
    else expected = actual
  in
  if not same then
    Alcotest.failf "%s: expected %.17g, got %.17g" what expected actual

(* ------------------------------------------------------------------ *)

let test_float_utils () =
  Alcotest.(check bool) "approx_eq equal" true (approx 1.0 1.0);
  Alcotest.(check bool) "approx_eq differs" false (approx 1.0 1.1);
  Alcotest.(check bool) "approx_eq tiny" true (approx 0.0 1e-13);
  Alcotest.(check (float 0.0)) "clamp low" 0.0
    (Numerics.Float_utils.clamp ~lo:0.0 ~hi:1.0 (-0.5));
  Alcotest.(check (float 0.0)) "clamp high" 1.0
    (Numerics.Float_utils.clamp ~lo:0.0 ~hi:1.0 1.5);
  Alcotest.(check (float 0.0)) "clamp_prob overshoot" 1.0
    (Numerics.Float_utils.clamp_prob 1.0000001);
  Alcotest.(check bool) "is_prob" true (Numerics.Float_utils.is_prob 0.5);
  Alcotest.(check bool) "is_prob nan" false (Numerics.Float_utils.is_prob Float.nan);
  check_close "relative_error" 0.1
    (Numerics.Float_utils.relative_error ~reference:10.0 11.0);
  check_close "relative_error zero ref" 0.25
    (Numerics.Float_utils.relative_error ~reference:0.0 0.25);
  check_close "sum_abs_diff" 3.0
    (Numerics.Float_utils.sum_abs_diff [| 1.0; 2.0 |] [| 2.0; 4.0 |]);
  check_close "max_abs_diff" 2.0
    (Numerics.Float_utils.max_abs_diff [| 1.0; 2.0 |] [| 2.0; 4.0 |])

let test_kahan () =
  (* Sum many tiny values onto a large one: naive summation loses them. *)
  let acc = Numerics.Kahan.create () in
  Numerics.Kahan.add acc 1e16;
  for _ = 1 to 10_000 do
    Numerics.Kahan.add acc 1.0
  done;
  check_close "kahan large+small" (1e16 +. 10_000.0) (Numerics.Kahan.sum acc);
  check_close "sum_array" 6.0 (Numerics.Kahan.sum_array [| 1.0; 2.0; 3.0 |]);
  check_close "dot" 32.0 (Numerics.Kahan.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |]);
  Alcotest.check_raises "dot length mismatch"
    (Invalid_argument "Kahan.dot: length mismatch") (fun () ->
      ignore (Numerics.Kahan.dot [| 1.0 |] [| 1.0; 2.0 |]))

let test_log_gamma () =
  check_close ~tol:1e-11 "Gamma(1)" 0.0 (Numerics.Special.log_gamma 1.0);
  check_close ~tol:1e-11 "Gamma(2)" 0.0 (Numerics.Special.log_gamma 2.0);
  check_close ~tol:1e-11 "Gamma(5) = 24" (Float.log 24.0)
    (Numerics.Special.log_gamma 5.0);
  check_close ~tol:1e-11 "Gamma(0.5) = sqrt(pi)"
    (0.5 *. Float.log Float.pi)
    (Numerics.Special.log_gamma 0.5);
  (* Reflection-branch value: Gamma(0.25) = 3.625609908... *)
  check_close ~tol:1e-10 "Gamma(0.25)" (Float.log 3.6256099082219083)
    (Numerics.Special.log_gamma 0.25);
  check_close ~tol:1e-10 "Gamma(171) large" (Numerics.Special.log_factorial 170)
    (Numerics.Special.log_gamma 171.0);
  Alcotest.check_raises "log_gamma of 0"
    (Invalid_argument "Special.log_gamma: requires x > 0") (fun () ->
      ignore (Numerics.Special.log_gamma 0.0))

let test_factorial_binomial () =
  check_close "0!" 0.0 (Numerics.Special.log_factorial 0);
  check_close "5!" (Float.log 120.0) (Numerics.Special.log_factorial 5);
  check_close ~tol:1e-10 "200!"
    (Numerics.Special.log_gamma 201.0)
    (Numerics.Special.log_factorial 200);
  check_close "C(5,2)" 10.0 (Numerics.Special.binomial 5 2);
  check_close "C(10,0)" 1.0 (Numerics.Special.binomial 10 0);
  check_close "C(10,10)" 1.0 (Numerics.Special.binomial 10 10);
  check_close ~tol:1e-10 "C(50,25)" 1.2641060643775221e14
    (Numerics.Special.binomial 50 25);
  Alcotest.check_raises "C(3,5) invalid"
    (Invalid_argument "Special.log_binomial: need 0 <= k <= n") (fun () ->
      ignore (Numerics.Special.binomial 3 5))

let test_log_sum_exp () =
  check_close "lse empty" Float.neg_infinity (Numerics.Special.log_sum_exp [||]);
  check_close ~tol:1e-12 "lse basics" (Float.log 3.0)
    (Numerics.Special.log_sum_exp [| 0.0; 0.0; 0.0 |]);
  (* Stability: values that would overflow exp directly. *)
  check_close ~tol:1e-12 "lse large" (1000.0 +. Float.log 2.0)
    (Numerics.Special.log_sum_exp [| 1000.0; 1000.0 |])

let test_poisson_pmf () =
  check_close "pmf(0;0)" 1.0 (Numerics.Poisson.pmf ~lambda:0.0 0);
  check_close "pmf(3;0)" 0.0 (Numerics.Poisson.pmf ~lambda:0.0 3);
  check_close ~tol:1e-12 "pmf(0;2)" (Float.exp (-2.0))
    (Numerics.Poisson.pmf ~lambda:2.0 0);
  check_close ~tol:1e-12 "pmf(2;2)" (2.0 *. Float.exp (-2.0))
    (Numerics.Poisson.pmf ~lambda:2.0 2);
  (* Mass sums to one over a wide window, even for large lambda. *)
  let lambda = 468.0 in
  let acc = Numerics.Kahan.create () in
  for n = 0 to 1200 do
    Numerics.Kahan.add acc (Numerics.Poisson.pmf ~lambda n)
  done;
  check_close ~tol:1e-10 "pmf mass at lambda=468" 1.0 (Numerics.Kahan.sum acc)

let test_poisson_cdf () =
  check_close ~tol:1e-12 "cdf(1;2)" (3.0 *. Float.exp (-2.0))
    (Numerics.Poisson.cdf ~lambda:2.0 1);
  (* Monotone in n. *)
  let prev = ref (-1.0) in
  for n = 0 to 30 do
    let c = Numerics.Poisson.cdf ~lambda:10.0 n in
    if c < !prev then Alcotest.failf "cdf not monotone at %d" n;
    prev := c
  done;
  check_close ~tol:1e-9 "cdf far right" 1.0 (Numerics.Poisson.cdf ~lambda:10.0 100)

(* The strongest oracle in the whole suite: the N_epsilon column of the
   paper's Table 2 for lambda * t = 19.5 * 24 = 468 — our truncation rule
   must reproduce all eight entries exactly. *)
let test_truncation_matches_paper () =
  let expected = [ 496; 519; 536; 551; 563; 574; 585; 594 ] in
  let epsilons = [ 1e-1; 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-7; 1e-8 ] in
  List.iter2
    (fun eps n ->
      Alcotest.(check int)
        (Printf.sprintf "N for eps=%g" eps)
        n
        (Numerics.Poisson.right_truncation_point ~lambda:468.0 ~epsilon:eps))
    epsilons expected

let test_truncation_edges () =
  Alcotest.(check int) "lambda 0" 0
    (Numerics.Poisson.right_truncation_point ~lambda:0.0 ~epsilon:1e-6);
  (* Tiny lambda: nearly all mass at 0. *)
  Alcotest.(check int) "tiny lambda coarse eps" 0
    (Numerics.Poisson.right_truncation_point ~lambda:1e-6 ~epsilon:1e-2);
  (* Crossings at or below the mode where e^-lambda underflows: the
     first input is a qcheck counterexample, the second the ad hoc Q3
     at t = 40 under sericola:0.5 (rate 19.5).  Both used to hang. *)
  List.iter
    (fun (lambda, epsilon) ->
      let n = Numerics.Poisson.right_truncation_point ~lambda ~epsilon in
      let reaches k = Numerics.Poisson.cdf ~lambda k >= 1.0 -. epsilon in
      if not (reaches n && not (reaches (n - 1))) then
        Alcotest.failf "lambda %.17g eps %.17g: N = %d is not the crossing"
          lambda epsilon n)
    [ (890.13071428222395, 0.49603153616408668); (780.0, 0.5) ];
  (* 1 - 1e-17 rounds to 1, which the summed mass (1 - 1e-13 here) never
     reaches: the walk stops where its terms underflow, with no mass
     left beyond it (ad hoc Q3 at t = 6 under sericola:1e-17, which used
     to hang). *)
  let cdf = Numerics.Poisson.cdf ~lambda:117.0 in
  let n = Numerics.Poisson.right_truncation_point ~lambda:117.0 ~epsilon:1e-17 in
  if n < 117 || cdf n <> cdf (10 * n) then
    Alcotest.failf "lambda 117 eps 1e-17: N = %d leaves mass behind" n;
  (* An epsilon below that rounding floor asks for a fraction of the
     mass that is there: at lambda = 117 the terms sum to 1 - 9.7e-14,
     and 1e-14 used to push N to the underflow point (719). *)
  let mass = cdf 2000 in
  let n = Numerics.Poisson.right_truncation_point ~lambda:117.0 ~epsilon:1e-14 in
  Alcotest.(check int) "lambda 117 eps 1e-14" 209 n;
  let reaches k = cdf k >= (1.0 -. 1e-14) *. mass in
  if not (reaches n && not (reaches (n - 1))) then
    Alcotest.failf "lambda 117 eps 1e-14: N = %d is not the normalised crossing"
      n;
  (* At lambda = 10^6 the pmf goes subnormal at n = 1,037,665 and is 0
     from n = 1,038,646; the walk used to run on to N = 1,999,999, since a
     subnormal term times a ratio near 1 rounds back to itself. *)
  let n = Numerics.Poisson.right_truncation_point ~lambda:1e6 ~epsilon:1e-12 in
  if n > 1_038_646 then
    Alcotest.failf "lambda 1e6 eps 1e-12: N = %d runs past the pmf's last \
                    non-zero term" n;
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Poisson.right_truncation_point: epsilon outside (0,1)")
    (fun () ->
      ignore (Numerics.Poisson.right_truncation_point ~lambda:1.0 ~epsilon:2.0))

let test_fox_glynn_basic () =
  let fg = Numerics.Fox_glynn.compute ~q:0.0 ~epsilon:1e-10 in
  Alcotest.(check int) "q=0 left" 0 fg.Numerics.Fox_glynn.left;
  Alcotest.(check int) "q=0 right" 0 fg.Numerics.Fox_glynn.right;
  check_close "q=0 total" 1.0 fg.Numerics.Fox_glynn.total;
  let fg = Numerics.Fox_glynn.compute ~q:10.0 ~epsilon:1e-12 in
  if fg.Numerics.Fox_glynn.total < 1.0 -. 1e-12 then
    Alcotest.failf "mass %g below 1 - eps" fg.Numerics.Fox_glynn.total;
  (* Window weights are the true pmf. *)
  for n = fg.Numerics.Fox_glynn.left to fg.Numerics.Fox_glynn.right do
    check_close ~tol:1e-10
      (Printf.sprintf "weight %d" n)
      (Numerics.Poisson.pmf ~lambda:10.0 n)
      (Numerics.Fox_glynn.weight fg n)
  done;
  check_close "outside window" 0.0
    (Numerics.Fox_glynn.weight fg (fg.Numerics.Fox_glynn.right + 5))

let test_fox_glynn_large () =
  (* The pseudo-Erlang expansion reaches q ~ 8700; exp(-q) underflows but
     the window must still carry the mass. *)
  let fg = Numerics.Fox_glynn.compute ~q:8700.0 ~epsilon:1e-10 in
  if fg.Numerics.Fox_glynn.total < 1.0 -. 1e-10 then
    Alcotest.failf "large-q mass %.17g too small" fg.Numerics.Fox_glynn.total;
  if fg.Numerics.Fox_glynn.total > 1.0 +. 1e-9 then
    Alcotest.failf "large-q mass %.17g exceeds one" fg.Numerics.Fox_glynn.total;
  (* Window should be centred near the mode. *)
  if fg.Numerics.Fox_glynn.left > 8700 || fg.Numerics.Fox_glynn.right < 8700
  then Alcotest.fail "window misses the mode"

let test_fox_glynn_edges () =
  (* Tiny rates: the mode is 0, so the window collapses to the first few
     integers and almost all the mass sits on n = 0. *)
  List.iter
    (fun q ->
      let fg = Numerics.Fox_glynn.compute ~q ~epsilon:1e-10 in
      Alcotest.(check int)
        (Printf.sprintf "tiny q=%g left" q)
        0 fg.Numerics.Fox_glynn.left;
      if fg.Numerics.Fox_glynn.right > 2 then
        Alcotest.failf "tiny q=%g right %d too wide" q
          fg.Numerics.Fox_glynn.right;
      check_close ~tol:1e-7
        (Printf.sprintf "tiny q=%g weight at 0" q)
        1.0
        (Numerics.Fox_glynn.weight fg 0))
    [ 1e-12; 1e-8 ];
  (* Around q ~ 745.13, exp(-q) underflows to zero: a naive recursion
     anchored at e^-q would produce an all-zero window.  The window is
     anchored at the mode's log-space pmf instead, so the weights stay
     finite and normalised straight through the boundary (and out to the
     pseudo-Erlang extreme).  The truncation points must also satisfy the
     a-posteriori Poisson tail bounds they were derived from. *)
  List.iter
    (fun q ->
      let epsilon = 1e-10 in
      let fg = Numerics.Fox_glynn.compute ~q ~epsilon in
      Array.iter
        (fun w ->
          if not (Float.is_finite w) || w < 0.0 then
            Alcotest.failf "q=%g: weight %g not finite/non-negative" q w)
        fg.Numerics.Fox_glynn.weights;
      if fg.Numerics.Fox_glynn.total < 1.0 -. epsilon then
        Alcotest.failf "q=%g: mass %.17g below 1 - eps" q
          fg.Numerics.Fox_glynn.total;
      if fg.Numerics.Fox_glynn.total > 1.0 +. 1e-9 then
        Alcotest.failf "q=%g: mass %.17g exceeds one" q
          fg.Numerics.Fox_glynn.total;
      let left = fg.Numerics.Fox_glynn.left
      and right = fg.Numerics.Fox_glynn.right in
      if left > 0 then begin
        let below = Numerics.Poisson.cdf ~lambda:q (left - 1) in
        if below > epsilon then
          Alcotest.failf "q=%g: left tail %.3g exceeds eps %g" q below epsilon
      end;
      let beyond = 1.0 -. Numerics.Poisson.cdf ~lambda:q right in
      if beyond > epsilon then
        Alcotest.failf "q=%g: right tail %.3g exceeds eps %g" q beyond epsilon)
    [ 700.0; 745.0; 746.0; 800.0; 8700.0 ]

let test_fox_glynn_fold () =
  let fg = Numerics.Fox_glynn.compute ~q:5.0 ~epsilon:1e-10 in
  let total = Numerics.Fox_glynn.fold fg ~init:0.0 ~f:(fun acc _ w -> acc +. w) in
  check_close ~tol:1e-12 "fold total" fg.Numerics.Fox_glynn.total total;
  let count = Numerics.Fox_glynn.fold fg ~init:0 ~f:(fun acc _ _ -> acc + 1) in
  Alcotest.(check int) "fold count"
    (fg.Numerics.Fox_glynn.right - fg.Numerics.Fox_glynn.left + 1)
    count

let test_interval () =
  let open Numerics.Time_interval in
  Alcotest.(check bool) "mem in" true (mem 3.0 (upto 5.0));
  Alcotest.(check bool) "mem boundary" true (mem 5.0 (upto 5.0));
  Alcotest.(check bool) "mem out" false (mem 5.1 (upto 5.0));
  Alcotest.(check bool) "mem negative" false (mem (-1.0) unbounded);
  Alcotest.(check bool) "unbounded mem" true (mem 1e30 unbounded);
  Alcotest.(check bool) "is_bounded" true (is_bounded (upto 1.0));
  Alcotest.(check (option (float 0.0))) "bound" (Some 2.0) (bound (upto 2.0));
  Alcotest.(check (option (float 0.0))) "bound unbounded" None (bound unbounded);
  Alcotest.(check bool) "equal" true (equal (upto 2.0) (upto 2.0));
  Alcotest.(check bool) "not equal" false (equal (upto 2.0) unbounded);
  Alcotest.(check bool) "min_bound" true
    (equal (min_bound (upto 2.0) (upto 3.0)) (upto 2.0));
  Alcotest.(check bool) "scale" true (equal (scale 2.0 (upto 3.0)) (upto 6.0));
  Alcotest.check_raises "upto negative"
    (Invalid_argument
       "Time_interval.upto: endpoints must be finite and non-negative")
    (fun () -> ignore (upto (-1.0)));
  (* General intervals. *)
  Alcotest.(check bool) "between mem" true (mem 2.0 (between 1.0 3.0));
  Alcotest.(check bool) "between below" false (mem 0.5 (between 1.0 3.0));
  Alcotest.(check bool) "from mem" true (mem 10.0 (from 2.0));
  Alcotest.(check bool) "from below" false (mem 1.0 (from 2.0));
  Alcotest.(check bool) "between normalises" true
    (equal (between 0.0 3.0) (upto 3.0));
  Alcotest.(check bool) "from normalises" true (equal (from 0.0) unbounded);
  check_close "lower" 1.0 (lower (between 1.0 3.0));
  Alcotest.(check (option (float 0.0))) "upper" (Some 3.0)
    (upper (between 1.0 3.0));
  Alcotest.(check bool) "downward closed" false
    (is_downward_closed (from 1.0));
  Alcotest.(check bool) "scale between" true
    (equal (scale 2.0 (between 1.0 3.0)) (between 2.0 6.0));
  (* Intersections. *)
  let same a b =
    match a, b with
    | Some x, Some y -> equal x y
    | None, None -> true
    | Some _, None | None, Some _ -> false
  in
  Alcotest.(check bool) "intersect overlap" true
    (same (intersect (between 1.0 4.0) (upto 2.0)) (Some (between 1.0 2.0)));
  Alcotest.(check bool) "intersect empty" true
    (same (intersect (upto 1.0) (from 2.0)) None);
  Alcotest.(check bool) "intersect unbounded" true
    (same (intersect unbounded (from 2.0)) (Some (from 2.0)));
  Alcotest.check_raises "between reversed"
    (Invalid_argument "Time_interval.between: lower exceeds upper") (fun () ->
      ignore (between 3.0 1.0))

(* ---------------- property tests ---------------------------------- *)

let prop_fox_glynn_mass =
  QCheck2.Test.make ~count:60 ~name:"fox-glynn window mass >= 1 - eps"
    QCheck2.Gen.(pair (float_range 0.01 2000.0) (float_range 1e-12 1e-2))
    (fun (q, epsilon) ->
      let fg = Numerics.Fox_glynn.compute ~q ~epsilon in
      fg.Numerics.Fox_glynn.total >= 1.0 -. epsilon
      && fg.Numerics.Fox_glynn.total <= 1.0 +. 1e-9)

let prop_truncation_covers =
  QCheck2.Test.make ~count:60 ~name:"right truncation reaches 1 - eps"
    QCheck2.Gen.(pair (float_range 0.01 1000.0) (float_range 1e-10 0.5))
    (fun (lambda, epsilon) ->
      let n = Numerics.Poisson.right_truncation_point ~lambda ~epsilon in
      Numerics.Poisson.cdf ~lambda n >= 1.0 -. epsilon -. 1e-12)

let prop_binomial_symmetry =
  QCheck2.Test.make ~count:100 ~name:"binomial symmetry"
    QCheck2.Gen.(pair (int_range 0 60) (int_range 0 60))
    (fun (n, k) ->
      QCheck2.assume (k <= n);
      approx ~rel:1e-10
        (Numerics.Special.binomial n k)
        (Numerics.Special.binomial n (n - k)))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "numerics",
    [ Alcotest.test_case "float_utils" `Quick test_float_utils;
      Alcotest.test_case "kahan" `Quick test_kahan;
      Alcotest.test_case "log_gamma" `Quick test_log_gamma;
      Alcotest.test_case "factorial/binomial" `Quick test_factorial_binomial;
      Alcotest.test_case "log_sum_exp" `Quick test_log_sum_exp;
      Alcotest.test_case "poisson pmf" `Quick test_poisson_pmf;
      Alcotest.test_case "poisson cdf" `Quick test_poisson_cdf;
      Alcotest.test_case "paper Table 2 N column" `Quick
        test_truncation_matches_paper;
      Alcotest.test_case "truncation edge cases" `Quick test_truncation_edges;
      Alcotest.test_case "fox-glynn basics" `Quick test_fox_glynn_basic;
      Alcotest.test_case "fox-glynn large q" `Quick test_fox_glynn_large;
      Alcotest.test_case "fox-glynn edge cases" `Quick test_fox_glynn_edges;
      Alcotest.test_case "fox-glynn fold" `Quick test_fox_glynn_fold;
      Alcotest.test_case "intervals" `Quick test_interval;
      q prop_fox_glynn_mass;
      q prop_truncation_covers;
      q prop_binomial_symmetry ] )
