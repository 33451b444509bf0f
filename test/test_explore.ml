(* On-the-fly exploration: the guarded-command language (lib/lang) and
   the sliding-window truncated uniformisation engine (lib/explore). *)

let check_float = Alcotest.(check (float 1e-9))

(* A birth-death .gcm whose explicit twin is easy to build by hand. *)
let birth_death_src =
  {|
const int N = 6;
const double birth = 2.0;

module bd
  x : [0..N] init 0;
  [] x < N -> birth : (x'=x+1);
  [] x > 0 -> 1.0 * x : (x'=x-1);
endmodule

label "empty" = x=0;
label "full" = x=N;

rewards
  x > 0 : 0.5 * x;
endrewards
|}

let birth_death_mrm () =
  let n = 7 in
  let triples = ref [] in
  for x = 0 to n - 1 do
    if x < n - 1 then triples := (x, x + 1, 2.0) :: !triples;
    if x > 0 then triples := (x, x - 1, float_of_int x) :: !triples
  done;
  let ctmc = Markov.Ctmc.of_transitions ~n !triples in
  let rewards = Array.init n (fun x -> 0.5 *. float_of_int x) in
  Markov.Mrm.make ctmc ~rewards

let compile_exn src =
  match Lang.Gcm.of_string src with
  | Ok succ -> succ
  | Error msg -> Alcotest.failf "unexpected .gcm error: %s" msg

let test_gcm_compiles () =
  let succ = compile_exn birth_death_src in
  Alcotest.(check (array string)) "vars" [| "x" |] succ.Explore.Succ.var_names;
  Alcotest.(check (list string))
    "props" [ "empty"; "full" ] succ.Explore.Succ.propositions;
  Alcotest.(check string) "describe" "x=0"
    (Explore.Succ.describe succ succ.Explore.Succ.initial);
  check_float "reward" 1.5 (succ.Explore.Succ.reward [| 3 |]);
  Alcotest.(check bool) "empty holds" true
    (succ.Explore.Succ.holds [| 0 |] "empty");
  let buf = Explore.Succ.buffer ~width:1 in
  succ.Explore.Succ.successors [| 3 |] buf;
  Alcotest.(check int) "2 successors" 2 buf.Explore.Succ.count;
  Alcotest.(check (array int)) "up, down" [| 4; 2 |]
    (Array.sub buf.Explore.Succ.targets 0 2);
  check_float "birth rate" 2.0 buf.Explore.Succ.rates.(0);
  check_float "death rate" 3.0 buf.Explore.Succ.rates.(1)

(* The successor buffer past its first capacity of 8 rows: a .gcm state
   with 13 candidate targets (a duplicate inside a command, one across
   commands, a self-loop), and an explicit model's 12-entry row with a
   self-loop rate, through [Succ.of_mrm]. *)
let test_successor_buffer () =
  let choices =
    List.init 10 (fun k -> Printf.sprintf "1.0 : (x'=%d)" k)
    @ [ "0.5 : (x'=3)"; "2.0 : (x'=10)"; "0.25 : (x'=11)" ]
  in
  let succ =
    compile_exn
      (Printf.sprintf
         "module m
  x : [0..20] init 10;
  [] x = 10 -> %s;
  [] x > 5 -> 0.125 : (x'=1);
endmodule
"
         (String.concat " + " choices))
  in
  let buf = Explore.Succ.buffer ~width:1 in
  succ.Explore.Succ.successors [| 10 |] buf;
  let n = buf.Explore.Succ.count in
  Alcotest.(check (array int)) "first-seen targets, self-loop dropped"
    [| 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 11 |]
    (Array.sub buf.Explore.Succ.targets 0 n);
  Alcotest.(check (array (float 0.0))) "duplicate rates added in order"
    [| 1.0; 1.125; 1.0; 1.5; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0; 0.25 |]
    (Array.sub buf.Explore.Succ.rates 0 n);
  let n = 12 in
  let chain =
    Markov.Ctmc.of_transitions ~n
      (List.init n (fun j -> (0, j, float_of_int (j + 1))))
  in
  let mrm = Markov.Mrm.make chain ~rewards:(Array.make n 0.0) in
  let wrapped =
    Explore.Succ.of_mrm mrm (Markov.Labeling.empty ~n) ~init:0
  in
  wrapped.Explore.Succ.successors [| 0 |] buf;
  let k = buf.Explore.Succ.count in
  Alcotest.(check (array int)) "row 0 without its self-loop"
    (Array.init (n - 1) (fun j -> j + 1))
    (Array.sub buf.Explore.Succ.targets 0 k);
  Alcotest.(check (array (float 0.0))) "row 0 rates"
    (Array.init (n - 1) (fun j -> float_of_int (j + 2)))
    (Array.sub buf.Explore.Succ.rates 0 k)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_gcm_errors () =
  let expect_error needle src =
    match Lang.Gcm.of_string src with
    | Ok _ -> Alcotest.failf "expected an error mentioning %S" needle
    | Error msg ->
      if not (contains msg needle) then
        Alcotest.failf "error %S does not mention %S" msg needle
  in
  expect_error "1:1" "garbage";
  expect_error "unknown name 'y'"
    "module m x : [0..1] init 0; [] y > 0 -> 1 : true; endmodule";
  expect_error "expected bool"
    "module m x : [0..1] init 0; [] x -> 1 : true; endmodule";
  expect_error "outside [0..1]"
    "module m x : [0..1] init 2; [] x > 0 -> 1 : true; endmodule"

let classify_goal succ goal s =
  if succ.Explore.Succ.holds s goal then Explore.Windowed.Absorb { goal = true }
  else Explore.Windowed.Transient { counts = false }

let solve_result = function
  | Explore.Windowed.Bounded r -> r
  | Explore.Windowed.Reward_bound_active _ ->
    Alcotest.fail "unexpected reward-bound abort"

(* Windowed until-probability on the .gcm birth-death chain must agree
   with explicit reachability on the hand-built twin (goal absorbing). *)
let test_windowed_vs_explicit () =
  let succ = compile_exn birth_death_src in
  let space = Explore.Space.create succ in
  let epsilon = 1e-9 in
  let t = 1.5 in
  let r =
    solve_result
      (Explore.Windowed.solve ~epsilon
         ~classify:(classify_goal succ "full")
         ~init:[ (succ.Explore.Succ.initial, 1.0) ]
         ~t ~reward_bound:None space)
  in
  (* Explicit twin: make the goal state absorbing, then transient mass. *)
  let mrm = birth_death_mrm () in
  let chain = Markov.Mrm.ctmc mrm in
  let n = Markov.Ctmc.n_states chain in
  let triples = ref [] in
  for s = 0 to n - 1 do
    if s <> n - 1 then
      Linalg.Csr.iter_row (Markov.Ctmc.rates chain) s (fun j rate ->
          if rate > 0.0 then triples := (s, j, rate) :: !triples)
  done;
  let absorbed = Markov.Ctmc.of_transitions ~n !triples in
  let init = Linalg.Vec.unit n 0 in
  let goal = Array.init n (fun s -> s = n - 1) in
  let reference =
    Markov.Transient.reachability ~epsilon:1e-12 absorbed ~init ~goal ~t
  in
  Alcotest.(check bool) "delta certified" true (r.Explore.Windowed.delta <= epsilon);
  Alcotest.(check bool)
    (Printf.sprintf "windowed %.12g vs explicit %.12g within %g"
       r.Explore.Windowed.value reference
       (r.Explore.Windowed.delta +. 1e-10))
    true
    (Float.abs (r.Explore.Windowed.value -. reference)
     <= r.Explore.Windowed.delta +. 1e-10)

(* Reward bounds are decided inside the window: a bound no windowed
   state can reach leaves the answer bit-identical to the unbounded one,
   and a bound the window's rewards exceed stops the solve with the
   first reward that bites (x = 2 earns 1.0, and 1.0 * 1.5 > 1). *)
let test_reward_bound_in_window () =
  let succ = compile_exn birth_death_src in
  let solve reward_bound =
    Explore.Windowed.solve ~epsilon:1e-9
      ~classify:(classify_goal succ "full")
      ~init:[ (succ.Explore.Succ.initial, 1.0) ]
      ~t:1.5 ~reward_bound (Explore.Space.create succ)
  in
  let free = solve_result (solve None) in
  let loose = solve_result (solve (Some 10.0)) in
  Alcotest.(check bool) "inactive bound: bit-identical value" true
    (Float.equal free.Explore.Windowed.value loose.Explore.Windowed.value);
  match solve (Some 1.0) with
  | Explore.Windowed.Reward_bound_active { rho_max; _ } ->
    check_float "rho_max" 1.0 rho_max
  | Explore.Windowed.Bounded _ -> Alcotest.fail "the bound should bite"

(* A run that never truncates must be bit-identical to truncate:false. *)
let test_bit_identity_when_untruncated () =
  let succ = compile_exn birth_death_src in
  let solve ~truncate =
    let space = Explore.Space.create succ in
    solve_result
      (Explore.Windowed.solve ~truncate ~epsilon:1e-6
         ~classify:(classify_goal succ "full")
         ~init:[ (succ.Explore.Succ.initial, 1.0) ]
         ~t:0.5 ~reward_bound:None space)
  in
  let truncated = solve ~truncate:true in
  let full = solve ~truncate:false in
  check_float "no mass dropped" 0.0
    truncated.Explore.Windowed.stats.Explore.Windowed.mass_dropped;
  Alcotest.(check bool) "bit-identical lower" true
    (Float.equal truncated.Explore.Windowed.lower full.Explore.Windowed.lower);
  Alcotest.(check bool) "bit-identical value" true
    (Float.equal truncated.Explore.Windowed.value full.Explore.Windowed.value)

(* The gcm-window benchmark's grid: 10^6 reachable states. *)
let window_grid =
  lazy
    (compile_exn
       (Models.Gcm_examples.grid ~frontier_at:200
          ~n:(Models.Gcm_examples.grid_n_for_states 1_000_000)
          ()))

let grid_until handle t =
  let q =
    Logic.Parser.query
      (Printf.sprintf "P=? ( true U[t<=%.3f] frontier )" t)
  in
  match Perf.Symbolic.eval ~epsilon:1e-9 handle q with
  | Perf.Symbolic.Numeric a -> a
  | Perf.Symbolic.Boolean _ -> Alcotest.fail "expected a numeric answer"

(* Warm spaces (reused across solves) must not change results: the
   birth-death chain solved twice on one space, and the grid at T = 24 on
   a fresh handle against one that first solved T = 48, which interned
   the states in another order. *)
let test_warm_space_deterministic () =
  let succ = compile_exn birth_death_src in
  let space = Explore.Space.create succ in
  let solve space =
    solve_result
      (Explore.Windowed.solve ~epsilon:1e-7
         ~classify:(classify_goal succ "full")
         ~init:[ (succ.Explore.Succ.initial, 1.0) ]
         ~t:2.0 ~reward_bound:None space)
  in
  let cold = solve space in
  let warm = solve space in
  let fresh = solve (Explore.Space.create succ) in
  Alcotest.(check bool) "warm = cold" true
    (Float.equal cold.Explore.Windowed.value warm.Explore.Windowed.value);
  Alcotest.(check bool) "fresh = cold" true
    (Float.equal cold.Explore.Windowed.value fresh.Explore.Windowed.value);
  let grid = Lazy.force window_grid in
  let cold = grid_until (Perf.Symbolic.create grid) 24.0 in
  let handle = Perf.Symbolic.create grid in
  ignore (grid_until handle 48.0 : Perf.Symbolic.answer);
  let warm = grid_until handle 24.0 in
  List.iter
    (fun (name, c, w) ->
      Alcotest.(check string) ("grid warm = cold: " ^ name)
        (Printf.sprintf "%h" c) (Printf.sprintf "%h" w))
    [ ("value", cold.Perf.Symbolic.value, warm.Perf.Symbolic.value);
      ("lower", cold.Perf.Symbolic.lower, warm.Perf.Symbolic.lower);
      ("upper", cold.Perf.Symbolic.upper, warm.Perf.Symbolic.upper) ]

let test_materialise_roundtrip () =
  let succ = compile_exn birth_death_src in
  let space = Explore.Space.create succ in
  match Explore.Materialise.materialise space with
  | Error n -> Alcotest.failf "materialise hit the limit at %d states" n
  | Ok (mrm, labeling, init) ->
    Alcotest.(check int) "init id" 0 init;
    Alcotest.(check int) "n states" 7 (Markov.Mrm.n_states mrm);
    let reference = birth_death_mrm () in
    for id = 0 to 6 do
      let x = (Explore.Space.state space id).(0) in
      check_float
        (Printf.sprintf "reward of x=%d" x)
        (Markov.Mrm.reward reference x)
        (Markov.Mrm.reward mrm id);
      for id' = 0 to 6 do
        let x' = (Explore.Space.state space id').(0) in
        if x <> x' then
          check_float
            (Printf.sprintf "rate x=%d -> x=%d" x x')
            (Markov.Ctmc.rate (Markov.Mrm.ctmc reference) x x')
            (Markov.Ctmc.rate (Markov.Mrm.ctmc mrm) id id')
      done
    done;
    Alcotest.(check bool) "full label" true
      (Markov.Labeling.holds labeling "full"
         (let found = ref (-1) in
          for id = 0 to 6 do
            if (Explore.Space.state space id).(0) = 6 then found := id
          done;
          !found))

(* ------------------------------------------------------------------ *)
(* qcheck: random .gcm programs, windowed vs explicit within delta.    *)

(* Emit a random two-variable program.  The shape is constrained so the
   program always typechecks and every update stays in range (the guard
   of each command implies its assignments are legal); everything else —
   ranges, initial point, rates, the coupled drift command, the
   branching choice, the goal front — varies with the draw. *)
let random_gcm_src ~nx ~ny ~ix ~iy ~rates ~coupled ~branching ~front =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "module m\n";
  add "  x : [0..%d] init %d;\n" nx ix;
  add "  y : [0..%d] init %d;\n" ny iy;
  add "  [] x < %d -> %.17g : (x'=x+1);\n" nx rates.(0);
  add "  [] x > 0 -> %.17g : (x'=x-1);\n" rates.(1);
  add "  [] y < %d -> %.17g : (y'=y+1);\n" ny rates.(2);
  add "  [] y > 0 -> %.17g : (y'=y-1);\n" rates.(3);
  if coupled then
    add "  [] x > 0 & y < %d -> %.17g : (x'=x-1) & (y'=y+1);\n" ny rates.(4);
  if branching then
    add "  [] x = 0 & y = 0 -> %.17g : (x'=1) + %.17g : (y'=1);\n" rates.(5)
      rates.(5);
  add "endmodule\n";
  add "label \"goal\" = x + y >= %d;\n" front;
  add "rewards\n  true : 0.25 * (x + y);\nendrewards\n";
  Buffer.contents buf

let gen_gcm_case =
  let open QCheck2.Gen in
  let* nx = int_range 2 5 and* ny = int_range 2 5 in
  let* ix = int_range 0 nx and* iy = int_range 0 ny in
  let* rates = array_size (return 6) (float_range 0.3 3.0) in
  let* coupled = bool and* branching = bool in
  let* front = int_range 1 (nx + ny) in
  let* t = float_range 0.2 2.0 in
  (* Half the thresholds are drawn inside the certified interval, as a
     fraction of its width; the others anywhere in [0, 1]. *)
  let* cmp = oneofl Logic.Ast.[ Lt; Le; Gt; Ge ]
  and* p =
    oneof
      [ map (fun u -> `Inside u) (float_range 0.05 0.95);
        map (fun p -> `Absolute p) (float_range 0.0 1.0) ]
  in
  return
    ( random_gcm_src ~nx ~ny ~ix ~iy ~rates ~coupled ~branching ~front,
      t, (cmp, p) )

(* The windowed engine's contract on arbitrary programs: the certified
   radius never exceeds the requested epsilon, and the answer is within
   that radius of full-matrix uniformised reachability on the
   materialised twin (goal states made absorbing, tighter epsilon so the
   reference's own error is negligible).  A threshold checked through a
   program context is [Unknown] exactly when it lies inside the
   certified interval ({!Checker.tri_of_bounds}), and otherwise decides
   as the twin's value does. *)
let windowed_within_delta_on_random_gcm =
  QCheck2.Test.make ~count:30 ~name:"random .gcm: windowed within delta"
    gen_gcm_case (fun (src, t, (cmp, p)) ->
      let succ =
        match Lang.Gcm.of_string src with
        | Ok succ -> succ
        | Error msg ->
          QCheck2.Test.fail_reportf "generated program rejected: %s\n%s" msg
            src
      in
      let epsilon = 1e-9 in
      let r =
        solve_result
          (Explore.Windowed.solve ~epsilon
             ~classify:(classify_goal succ "goal")
             ~init:[ (succ.Explore.Succ.initial, 1.0) ]
             ~t ~reward_bound:None
             (Explore.Space.create succ))
      in
      if r.Explore.Windowed.delta > epsilon then
        QCheck2.Test.fail_reportf "delta %g exceeds epsilon %g"
          r.Explore.Windowed.delta epsilon;
      let mrm, labeling, init_id =
        match
          Explore.Materialise.materialise (Explore.Space.create succ)
        with
        | Ok twin -> twin
        | Error n -> QCheck2.Test.fail_reportf "materialise capped at %d" n
      in
      let chain = Markov.Mrm.ctmc mrm in
      let n = Markov.Ctmc.n_states chain in
      let goal = Markov.Labeling.sat labeling "goal" in
      let triples = ref [] in
      for s = 0 to n - 1 do
        if not goal.(s) then
          Linalg.Csr.iter_row (Markov.Ctmc.rates chain) s (fun j rate ->
              if rate > 0.0 then triples := (s, j, rate) :: !triples)
      done;
      let absorbed = Markov.Ctmc.of_transitions ~n !triples in
      let reference =
        Markov.Transient.reachability ~epsilon:1e-12 absorbed
          ~init:(Linalg.Vec.unit n init_id) ~goal ~t
      in
      let diff = Float.abs (r.Explore.Windowed.value -. reference) in
      if diff > r.Explore.Windowed.delta +. 1e-10 then
        QCheck2.Test.fail_reportf
          "windowed %.17g vs explicit %.17g: |diff| %g outside certified \
           delta %g\n%s"
          r.Explore.Windowed.value reference diff r.Explore.Windowed.delta src;
      let ctx = Checker.make_program ~epsilon (Perf.Symbolic.create succ) in
      let memo = Checker.create_memo () in
      let until =
        Logic.Ast.Until
          ( Numerics.Time_interval.upto t, Numerics.Time_interval.unbounded,
            Logic.Ast.True, Logic.Ast.Ap "goal" )
      in
      let lo, hi =
        match Checker.eval_query ~memo ctx (Logic.Ast.Prob_query until) with
        | Checker.Interval { Robust.Envelope.lo; hi } -> (lo.{0}, hi.{0})
        | _ -> QCheck2.Test.fail_reportf "expected an interval verdict"
      in
      if
        not
          (Float.equal lo r.Explore.Windowed.lower
          && Float.equal hi r.Explore.Windowed.upper)
      then
        QCheck2.Test.fail_reportf
          "program context [%h, %h] vs windowed engine [%h, %h]\n%s" lo hi
          r.Explore.Windowed.lower r.Explore.Windowed.upper src;
      let p =
        match p with `Inside u -> lo +. (u *. (hi -. lo)) | `Absolute p -> p
      in
      let formula = Logic.Ast.Prob (cmp, p, until) in
      let expected =
        match Checker.tri_of_bounds cmp p ~lo ~hi with
        | Checker.Unknown -> Checker.Unknown
        | Checker.Holds | Checker.Fails ->
          Checker.tri_of_bool (Logic.Ast.compare_holds cmp p reference)
      in
      (match Checker.eval_query ~memo ctx (Logic.Ast.Formula formula) with
       | Checker.Three_valued [| verdict |] when verdict = expected -> ()
       | Checker.Three_valued [| verdict |] ->
         QCheck2.Test.fail_reportf
           "%s: verdict %s, expected %s (interval [%.17g, %.17g], explicit \
            %.17g)\n%s"
           (Logic.Ast.to_string formula)
           (Checker.tri_to_string verdict)
           (Checker.tri_to_string expected)
           lo hi reference src
       | _ -> QCheck2.Test.fail_reportf "expected a one-row verdict");
      true)

(* Answers and window statistics of the gcm-window grid, pinned bit for
   bit: the sweep's float operations must keep their order. *)
let window_golden =
  [ (24.0, "0x1.0c103227d0e4fp-32", "0x0p+0", "0x1.0c103227d0e4fp-31",
     (4334, 5669, 144, 1));
    (36.0, "0x1.1b4df01d2f094p-32", "0x0p+0", "0x1.1b4df01d2f094p-31",
     (5896, 8671, 198, 1));
    (48.0, "0x1.1f5177075e31cp-32", "0x1.5d1987c187141p-47",
     "0x1.1f5019edd6704p-31", (6656, 10722, 250, 1)) ]

let test_window_golden () =
  let succ = Lazy.force window_grid in
  List.iter
    (fun (t, value, lower, upper, (peak, expanded, iterations, restarts)) ->
      let a = grid_until (Perf.Symbolic.create succ) t in
      let at what = Printf.sprintf "T=%g %s" t what in
      let hex = Printf.sprintf "%h" in
      Alcotest.(check string) (at "value") value (hex a.Perf.Symbolic.value);
      Alcotest.(check string) (at "lower") lower (hex a.Perf.Symbolic.lower);
      Alcotest.(check string) (at "upper") upper (hex a.Perf.Symbolic.upper);
      match a.Perf.Symbolic.stats with
      | None -> Alcotest.fail (at "has no window statistics")
      | Some s ->
        Alcotest.(check (list int)) (at "peak/expanded/iterations/restarts")
          [ peak; expanded; iterations; restarts ]
          [ s.Explore.Windowed.peak_window; s.Explore.Windowed.states_expanded;
            s.Explore.Windowed.iterations; s.Explore.Windowed.restarts ])
    window_golden

(* A uniformisation step allocates nothing: on a space whose states are
   all expanded, a solve of 126 steps allocates as many words as one of
   54 (each run twice, so the second finds its Fox-Glynn window
   memoised). *)
let test_steps_allocate_nothing () =
  let succ = compile_exn (Models.Gcm_examples.grid ~frontier_at:40 ~n:120 ()) in
  let space = Explore.Space.create succ in
  (match Explore.Space.close space with
  | Ok () -> ()
  | Error n -> Alcotest.failf "grid capped at %d states" n);
  let words t =
    let solve () =
      solve_result
        (Explore.Windowed.solve ~epsilon:1e-9
           ~classify:(classify_goal succ "frontier")
           ~init:[ (succ.Explore.Succ.initial, 1.0) ]
           ~t ~reward_bound:None space)
    in
    ignore (solve () : Explore.Windowed.result);
    let before = Gc.minor_words () in
    let r = solve () in
    (r.Explore.Windowed.stats.Explore.Windowed.iterations,
     Gc.minor_words () -. before)
  in
  let short_steps, short_words = words 6.0 in
  let long_steps, long_words = words 20.0 in
  Alcotest.(check bool) "the longer solve runs more steps" true
    (long_steps > short_steps + 50);
  Alcotest.(check bool)
    (Printf.sprintf "%d more steps cost %.0f more words" (long_steps - short_steps)
       (long_words -. short_words))
    true
    (long_words -. short_words < 64.0)

(* A reward that fails to evaluate while a state is interned must leave
   the space as it was: the same check fails the same way again, and
   every interned id still maps back to itself. *)
let poison_src =
  {|
module m
  x : [0..6] init 0;
  y : [0..1] init 0;
  [] x < 6 -> 2.0 : (x'=x+1);
  [] x > 0 -> 1.0 : (x'=x-1);
  [] y = 0 -> 0.5 : (y'=1);
endmodule
label "top" = x=6;
rewards
  true : 1.0;
  x=4 & y=0 : 0.0 - 2.0;
endrewards
|}

let test_runtime_error_keeps_space () =
  let handle = Perf.Symbolic.create (compile_exn poison_src) in
  let q = Logic.Parser.query "P=? ( true U[t<=5] top )" in
  let error () =
    match Perf.Symbolic.eval ~epsilon:1e-9 handle q with
    | _ -> Alcotest.fail "expected a model runtime error"
    | exception Lang.Gcm.Runtime_error message -> message
  in
  let first = error () in
  Alcotest.(check string) "the same error again" first (error ());
  let space = Perf.Symbolic.space handle in
  for id = 0 to Explore.Space.n_states space - 1 do
    Alcotest.(check int)
      (Printf.sprintf "id %d re-interns to itself" id)
      id
      (Explore.Space.intern space (Explore.Space.state space id))
  done

(* The interner over random valuations, interned across several table
   growths: dense ids in first-seen order, each valuation copied (the
   caller's array is clobbered right after), [state (intern s) = s], and
   re-interning returns the same id. *)
let interner_dense_first_seen =
  QCheck2.Test.make ~count:40 ~name:"space interner: dense first-seen ids"
    QCheck2.Gen.(
      let* width = int_range 1 4 in
      let* states =
        list_size (int_range 1 1500)
          (array_size (return width) (int_range (-6) 6))
      in
      return (width, states))
    (fun (width, states) ->
      let initial = List.hd states in
      let succ =
        { Explore.Succ.var_names = Array.init width (Printf.sprintf "v%d");
          initial; successors = (fun _ buf -> buf.Explore.Succ.count <- 0);
          reward = (fun _ -> 0.0); propositions = [];
          holds = (fun _ _ -> false) }
      in
      let space = Explore.Space.create succ in
      let seen = Hashtbl.create 64 in
      let order = ref [] in
      List.iter
        (fun s ->
          let expected =
            match Hashtbl.find_opt seen s with
            | Some id -> id
            | None ->
              let id = Hashtbl.length seen in
              Hashtbl.add seen s id;
              order := s :: !order;
              id
          in
          let arg = Array.copy s in
          let id = Explore.Space.intern space arg in
          Array.fill arg 0 width 99;
          if id <> expected then
            QCheck2.Test.fail_reportf "got id %d, expected %d" id expected)
        states;
      let distinct = Array.of_list (List.rev !order) in
      if Explore.Space.n_states space <> Array.length distinct then
        QCheck2.Test.fail_reportf "%d ids for %d distinct valuations"
          (Explore.Space.n_states space) (Array.length distinct);
      Array.iteri
        (fun id s ->
          if Explore.Space.state space id <> s then
            QCheck2.Test.fail_reportf "state %d is not its valuation" id;
          if Explore.Space.intern space s <> id then
            QCheck2.Test.fail_reportf "valuation of %d re-interned elsewhere"
              id)
        distinct;
      true)

let suite =
  ( "explore",
    [ Alcotest.test_case "gcm compiles" `Quick test_gcm_compiles;
      Alcotest.test_case "successor buffer" `Quick test_successor_buffer;
      Alcotest.test_case "gcm errors" `Quick test_gcm_errors;
      Alcotest.test_case "windowed vs explicit" `Quick test_windowed_vs_explicit;
      Alcotest.test_case "reward bound in the window" `Quick
        test_reward_bound_in_window;
      Alcotest.test_case "bit identity when untruncated" `Quick
        test_bit_identity_when_untruncated;
      Alcotest.test_case "warm space deterministic" `Quick
        test_warm_space_deterministic;
      Alcotest.test_case "materialise roundtrip" `Quick
        test_materialise_roundtrip;
      Alcotest.test_case "gcm-window grid golden" `Quick test_window_golden;
      Alcotest.test_case "windowed steps allocate nothing" `Quick
        test_steps_allocate_nothing;
      Alcotest.test_case "runtime error keeps the space" `Quick
        test_runtime_error_keeps_space;
      QCheck_alcotest.to_alcotest windowed_within_delta_on_random_gcm;
      QCheck_alcotest.to_alcotest interner_dense_first_seen ] )
