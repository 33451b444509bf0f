(* Tests for the two-cost frontier layer: Perf.Frontier's bisection
   primitive and divide-and-conquer sweep, and Batch.Frontier's
   end-to-end runs.  The defining invariant is differential: every
   emitted staircase point must be bit-identical to a cold single-query
   [Checker.eval_query] solve of the same (t, r) bounds, with and
   without a domain pool, and to the unreduced Theorem 1 solve.  On top
   of that, qcheck properties pin the monotonicity assumptions the
   sweep's brackets rely on, the staircase shape, and byte-identical
   warm-memo reruns with coherent cache counters. *)

let bits = Int64.bits_of_float

(* ------------------------------------------------------------------ *)
(* probe: the 1-point degenerate case on analytic evals.               *)

let test_probe_analytic () =
  (* eval r = 1 - exp(-r): the least r with eval r >= 1/2 is ln 2.  The
     engines need a positive bound, so the search never probes r <= 0. *)
  let evaluations = ref 0 in
  let eval r =
    if not (r > 0.0) then Alcotest.failf "probe evaluated at %g" r;
    incr evaluations;
    1.0 -. exp (-.r)
  in
  let o = Perf.Frontier.probe ~eval ~target:0.5 ~hi:10.0 ~tolerance:1e-9 in
  (match o.Perf.Frontier.value with
   | None -> Alcotest.fail "probe missed a reachable target"
   | Some r ->
     if Float.abs (r -. Float.log 2.0) > 1e-8 then
       Alcotest.failf "probe found %.17g, want ln 2 = %.17g" r (Float.log 2.0);
     if o.Perf.Frontier.achieved < 0.5 then
       Alcotest.failf "achieved %.17g below the target" o.Perf.Frontier.achieved);
  Alcotest.(check int) "evaluation counter" !evaluations
    o.Perf.Frontier.evaluations

let test_probe_unreachable () =
  let eval _ = 0.1 in
  let o = Perf.Frontier.probe ~eval ~target:0.5 ~hi:7.0 ~tolerance:1e-6 in
  (match o.Perf.Frontier.value with
   | None -> ()
   | Some r -> Alcotest.failf "probe claimed %.17g for an unreachable target" r);
  Alcotest.(check (float 0.0)) "achieved is eval hi" 0.1
    o.Perf.Frontier.achieved;
  Alcotest.(check int) "one evaluation suffices" 1 o.Perf.Frontier.evaluations

let test_probe_validation () =
  let eval r = r in
  List.iter
    (fun (hi, tolerance) ->
      Alcotest.check_raises "probe validation"
        (Invalid_argument "Frontier.probe: hi must be positive and finite")
        (fun () ->
          ignore (Perf.Frontier.probe ~eval ~target:0.5 ~hi ~tolerance)))
    [ (0.0, 1e-6); (-1.0, 1e-6); (Float.infinity, 1e-6); (Float.nan, 1e-6) ];
  Alcotest.check_raises "tolerance validation"
    (Invalid_argument "Frontier.probe: tolerance must be positive") (fun () ->
      ignore (Perf.Frontier.probe ~eval ~target:0.5 ~hi:1.0 ~tolerance:0.0))

(* ------------------------------------------------------------------ *)
(* sweep: certified staircase on an analytic two-variable eval.        *)

let test_sweep_analytic () =
  (* p(t, r) = (1 - exp(-t)) (1 - exp(-r)): monotone in both arguments,
     with the exact boundary r*(t) = -ln(1 - target / (1 - exp(-t)))
     wherever 1 - exp(-t) > target (and infeasible below that t). *)
  let target = 0.3 in
  let eval ~t ~r = (1.0 -. exp (-.t)) *. (1.0 -. exp (-.r)) in
  let tolerance = 1e-6 in
  let s =
    Perf.Frontier.sweep ~eval ~target ~time_bound:4.0 ~reward_bound:8.0
      ~points:16 ~tolerance
  in
  if s.Perf.Frontier.points = [] then Alcotest.fail "empty staircase";
  let last_t = ref 0.0 and last_r = ref Float.infinity in
  List.iter
    (fun (p : Perf.Frontier.point) ->
      if p.Perf.Frontier.t <= !last_t then Alcotest.fail "t not increasing";
      if p.Perf.Frontier.r >= !last_r then Alcotest.fail "r not decreasing";
      last_t := p.Perf.Frontier.t;
      last_r := p.Perf.Frontier.r;
      (* The emitted probability is eval's actual value there... *)
      if bits p.Perf.Frontier.probability
         <> bits (eval ~t:p.Perf.Frontier.t ~r:p.Perf.Frontier.r)
      then Alcotest.fail "probability is not eval at the emitted point";
      (* ... it meets the target ... *)
      if p.Perf.Frontier.probability < target then
        Alcotest.fail "emitted point below the target";
      (* ... and the resolved reward is within the certified tolerance
         of the analytic boundary. *)
      let mass = 1.0 -. exp (-.p.Perf.Frontier.t) in
      if mass <= target then
        Alcotest.failf "infeasible row t=%g emitted" p.Perf.Frontier.t;
      let exact = -.Float.log (1.0 -. (target /. mass)) in
      if Float.abs (p.Perf.Frontier.r -. exact) > tolerance then
        Alcotest.failf "row t=%g resolved r=%.12g, exact %.12g (tol %g)"
          p.Perf.Frontier.t p.Perf.Frontier.r exact tolerance)
    s.Perf.Frontier.points;
  (* Rows with 1 - exp(-t) <= target are infeasible at any reward: the
     grid has 16 rows but the staircase must start strictly later. *)
  let t_min = -.Float.log (1.0 -. target) in
  (match s.Perf.Frontier.points with
   | first :: _ ->
     if first.Perf.Frontier.t <= t_min then
       Alcotest.fail "sweep emitted a row below the feasibility threshold"
   | [] -> ());
  if s.Perf.Frontier.evaluations < List.length s.Perf.Frontier.points then
    Alcotest.fail "evaluation counter below the staircase size"

(* ------------------------------------------------------------------ *)
(* Differential battery: sweeps vs cold single-query solves.           *)

let frontier_text = "frontier[8] P>=0.2 ( a U[t<=2][r<=3] b )"

let uniform_init n = Linalg.Vec.init n (fun _ -> 1.0 /. float_of_int n)

(* One cold probe: a fresh context with the same configuration, no memo,
   cleared process-wide Fox-Glynn windows — the same solve a standalone
   csrl-check invocation would perform. *)
let cold_point ?pool m labeling ~init ~path ~t ~r =
  Numerics.Fox_glynn.cache_clear ();
  let ctx = Checker.make ?pool m labeling in
  let phi, psi =
    match path with
    | Logic.Ast.Until (_, _, phi, psi) -> (phi, psi)
    | _ -> Alcotest.fail "frontier query without an until"
  in
  let probe =
    Logic.Ast.Prob_query
      (Logic.Ast.Until
         (Numerics.Time_interval.upto t, Numerics.Time_interval.upto r, phi, psi))
  in
  match Checker.eval_query ctx probe with
  | Checker.Numeric values -> Linalg.Vec.dot init values
  | _ -> Alcotest.fail "numeric verdict expected"

let differential_on ?pool what m labeling =
  let query = Logic.Parser.query frontier_text in
  let path =
    match query with
    | Logic.Ast.Frontier_query { path; _ } -> path
    | _ -> Alcotest.fail "not a frontier query"
  in
  let init = uniform_init (Markov.Mrm.n_states m) in
  let ctx = Checker.make ?pool m labeling in
  let memo = Checker.create_memo () in
  let result = Batch.Frontier.run ~memo ~tolerance:1e-4 ctx ~init query in
  List.iter
    (fun (p : Batch.Frontier.point) ->
      let cold =
        cold_point ?pool m labeling ~init ~path ~t:p.Batch.Frontier.t
          ~r:p.Batch.Frontier.r
      in
      if bits p.Batch.Frontier.probability <> bits cold then
        Alcotest.failf
          "%s: point (t=%.17g, r=%.17g) sweep %.17g != cold %.17g" what
          p.Batch.Frontier.t p.Batch.Frontier.r p.Batch.Frontier.probability
          cold)
    result.Batch.Frontier.points;
  (* The warm sweep prepares the reduction pipeline once, and its shared
     brackets take fewer solves than one cold bisection per grid row. *)
  let reduction_memo = List.assoc "reduction" (Checker.memo_counters memo) in
  Alcotest.(check int) (what ^ ": reduction prepared once") 1
    reduction_memo.Numerics.Memo.misses;
  let { Batch.Frontier.target; time_bound; reward_bound; grid; tolerance; _ } =
    result
  in
  let cold_evaluations =
    List.fold_left ( + ) 0
      (List.init grid (fun i ->
           let t = time_bound *. float_of_int (i + 1) /. float_of_int grid in
           let eval r = cold_point ?pool m labeling ~init ~path ~t ~r in
           (Perf.Frontier.probe ~eval ~target ~hi:reward_bound ~tolerance)
             .Perf.Frontier.evaluations))
  in
  if result.Batch.Frontier.evaluations >= cold_evaluations then
    Alcotest.failf "%s: sweep made %d evaluations, cold bisections %d" what
      result.Batch.Frontier.evaluations cold_evaluations;
  result

(* The reduction pipeline must not change what the sweep emits: every
   point is bit-identical to the unreduced Theorem 1 solve at its
   bounds. *)
let check_unreduced m labeling (result : Batch.Frontier.result) =
  let init = uniform_init (Markov.Mrm.n_states m) in
  let phi = Markov.Labeling.sat labeling "a"
  and psi = Markov.Labeling.sat labeling "b" in
  let solve = Perf.Engine.solve Perf.Engine.default in
  List.iter
    (fun (p : Batch.Frontier.point) ->
      let unreduced =
        Linalg.Vec.dot init
          (Perf.Reduced.until_probabilities_via solve m ~phi ~psi
             ~time_bound:p.Batch.Frontier.t ~reward_bound:p.Batch.Frontier.r)
      in
      if bits p.Batch.Frontier.probability <> bits unreduced then
        Alcotest.failf
          "point (t=%.17g, r=%.17g): sweep %.17g != unreduced %.17g"
          p.Batch.Frontier.t p.Batch.Frontier.r p.Batch.Frontier.probability
          unreduced)
    result.Batch.Frontier.points

let test_differential () =
  (* Seeds chosen so the battery exercises non-trivial staircases; the
     sweep must agree with cold solves regardless, so empty frontiers
     on some configurations are fine as long as one seed emits. *)
  let emitted = ref 0 in
  List.iter
    (fun seed ->
      let m, labeling =
        Models.Random_mrm.generate_labeled ~seed Models.Random_mrm.default
      in
      let plain = differential_on "sequential" m labeling in
      emitted := !emitted + List.length plain.Batch.Frontier.points;
      check_unreduced m labeling plain;
      Parallel.Pool.with_pool ~jobs:3 (fun pool ->
          let pooled = differential_on ~pool "pool" m labeling in
          List.iter2
            (fun (a : Batch.Frontier.point) (b : Batch.Frontier.point) ->
              if bits a.Batch.Frontier.probability
                 <> bits b.Batch.Frontier.probability
              then Alcotest.fail "pool changed a staircase point")
            plain.Batch.Frontier.points pooled.Batch.Frontier.points))
    [ 3L; 7L; 11L; 19L ];
  if !emitted = 0 then
    Alcotest.fail "no staircase point emitted across any battery seed"

(* ------------------------------------------------------------------ *)
(* qcheck properties on random labeled models.                         *)

let gen_seed = QCheck2.Gen.int_range 0 10_000

let eval_on ctx memo ~init ~t ~r =
  let probe =
    Logic.Ast.Prob_query
      (Logic.Ast.Until
         (Numerics.Time_interval.upto t, Numerics.Time_interval.upto r, Logic.Ast.Ap "a",
          Logic.Ast.Ap "b"))
  in
  match Checker.eval_query ~memo ctx probe with
  | Checker.Numeric values -> Linalg.Vec.dot init values
  | _ -> QCheck2.Test.fail_report "numeric verdict expected"

(* The sweep's brackets are sound only because the until probability is
   monotone nondecreasing in both bounds; pin that on random models
   (with a small numerical slack for the engines' truncation error). *)
let until_is_monotone =
  QCheck2.Test.make ~count:20 ~name:"until monotone in t and r"
    QCheck2.Gen.(triple gen_seed (float_range 0.2 2.0) (float_range 0.2 3.0))
    (fun (seed, t, r) ->
      let m, labeling =
        Models.Random_mrm.generate_labeled ~seed:(Int64.of_int seed)
          Models.Random_mrm.default
      in
      let init = uniform_init (Markov.Mrm.n_states m) in
      let ctx = Checker.make m labeling in
      let memo = Checker.create_memo () in
      let p = eval_on ctx memo ~init ~t ~r in
      let slack = 1e-7 in
      let p_t = eval_on ctx memo ~init ~t:(t *. 1.5) ~r in
      if p_t < p -. slack then
        QCheck2.Test.fail_reportf
          "p(%.3g, %.3g) = %.12g > p(%.3g, %.3g) = %.12g: not monotone in t" t
          r p (t *. 1.5) r p_t;
      let p_r = eval_on ctx memo ~init ~t ~r:(r *. 1.5) in
      if p_r < p -. slack then
        QCheck2.Test.fail_reportf
          "p(%.3g, %.3g) = %.12g > p(%.3g, %.3g) = %.12g: not monotone in r" t
          r p t (r *. 1.5) p_r;
      true)

let check_counters what counters =
  List.iter
    (fun (name, (c : Perf.Batch.counters)) ->
      if c.Perf.Batch.hits + c.Perf.Batch.misses <> c.Perf.Batch.lookups then
        QCheck2.Test.fail_reportf
          "%s: cache %s: hits (%d) + misses (%d) <> lookups (%d)" what name
          c.Perf.Batch.hits c.Perf.Batch.misses c.Perf.Batch.lookups)
    counters

(* The staircase shape, plus warm-memo reruns: sweeping again on the
   same memo must answer byte-identically (every probe a cache hit can
   serve is served the exact stored value) with coherent counters. *)
let sweep_staircase_and_warm_rerun =
  QCheck2.Test.make ~count:20 ~name:"staircase antichain; warm rerun identical"
    gen_seed (fun seed ->
      let m, labeling =
        Models.Random_mrm.generate_labeled ~seed:(Int64.of_int seed)
          Models.Random_mrm.default
      in
      let init = uniform_init (Markov.Mrm.n_states m) in
      let query = Logic.Parser.query "frontier[6] P>=0.1 ( a U[t<=2][r<=3] b )" in
      let ctx = Checker.make m labeling in
      let memo = Checker.create_memo () in
      let first = Batch.Frontier.run ~memo ~tolerance:1e-3 ctx ~init query in
      let last_t = ref 0.0 and last_r = ref Float.infinity in
      List.iter
        (fun (p : Batch.Frontier.point) ->
          if p.Batch.Frontier.t <= !last_t then
            QCheck2.Test.fail_report "staircase t not strictly increasing";
          if p.Batch.Frontier.r >= !last_r then
            QCheck2.Test.fail_report "staircase r not strictly decreasing";
          if p.Batch.Frontier.probability < 0.1 then
            QCheck2.Test.fail_report "staircase point below the target";
          last_t := p.Batch.Frontier.t;
          last_r := p.Batch.Frontier.r)
        first.Batch.Frontier.points;
      check_counters "first sweep" (Checker.memo_counters memo);
      let again = Batch.Frontier.run ~memo ~tolerance:1e-3 ctx ~init query in
      if
        List.length first.Batch.Frontier.points
        <> List.length again.Batch.Frontier.points
        || first.Batch.Frontier.evaluations
           <> again.Batch.Frontier.evaluations
      then QCheck2.Test.fail_report "warm rerun changed the sweep shape";
      List.iter2
        (fun (a : Batch.Frontier.point) (b : Batch.Frontier.point) ->
          if
            bits a.Batch.Frontier.t <> bits b.Batch.Frontier.t
            || bits a.Batch.Frontier.r <> bits b.Batch.Frontier.r
            || bits a.Batch.Frontier.probability
               <> bits b.Batch.Frontier.probability
          then QCheck2.Test.fail_report "warm rerun changed a point")
        first.Batch.Frontier.points again.Batch.Frontier.points;
      check_counters "warm rerun" (Checker.memo_counters memo);
      true)

let suite =
  ( "frontier",
    [ Alcotest.test_case "probe finds the analytic quantile" `Quick
        test_probe_analytic;
      Alcotest.test_case "probe reports unreachable targets" `Quick
        test_probe_unreachable;
      Alcotest.test_case "probe validates its arguments" `Quick
        test_probe_validation;
      Alcotest.test_case "sweep matches the analytic boundary" `Quick
        test_sweep_analytic;
      Alcotest.test_case "sweep points bit-identical to cold solves" `Quick
        test_differential;
      QCheck_alcotest.to_alcotest until_is_monotone;
      QCheck_alcotest.to_alcotest sweep_staircase_and_warm_rerun ] )
