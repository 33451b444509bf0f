(* Tests for the quotient-and-prune reduction pipeline: exactness on
   random models (within the engines' truncation error), strict
   bit-identity whenever no stage fires, the counting abstraction on
   planted-symmetry models, and consistent reduction.* telemetry. *)

let snap x = Float.max (1.0 /. 16.0) (Float.round (x *. 16.0) /. 16.0)

(* Deterministic query bounds for a seeded random model: a horizon in
   (0.5, 3] and a reward bound that actually bites when rewards exist. *)
let bounds ~seed m =
  let rng = Sim.Rng.create ~seed:(Int64.logxor seed 0x2545F4914F6CDD1DL) in
  let t = snap (0.5 +. (Sim.Rng.float rng *. 2.5)) in
  let rho_max = Markov.Mrm.max_reward m in
  let r =
    if rho_max > 0.0 then
      snap ((0.2 +. (Sim.Rng.float rng *. 0.7)) *. rho_max *. t)
    else 1.0
  in
  (t, r)

let masks labeling =
  let a = Markov.Labeling.sat labeling "a"
  and b = Markov.Labeling.sat labeling "b"
  and c = Markov.Labeling.sat labeling "c" in
  let phi = Array.init (Array.length a) (fun s -> a.(s) || b.(s)) in
  (phi, c)

let counter tel name = Option.value ~default:0 (Telemetry.counter tel name)

(* The pipeline's per-state answers: prepare once, then one scalar solve
   per row of each reachable-set group. *)
let through_pipeline ?telemetry ?pool solve m ~phi ~psi ~time_bound
    ~reward_bound =
  let r = Perf.Reduction.prepare ?telemetry m ~phi ~psi in
  Perf.Reduction.until_probabilities_on r ?pool ?telemetry solve ~phi ~psi
    ~time_bound ~reward_bound

(* The pipeline's no-op promise, read back from its own telemetry: no
   state pruned or lumped in prepare, and no per-solve init pruning. *)
let nothing_fired tel =
  counter tel "reduction.states_before" = counter tel "reduction.states_after"
  && counter tel "reduction.pruned_states" = 0
  && counter tel "reduction.lumped" = 0
  && counter tel "reduction.init_pruned_states" = 0

let pipeline_matches_baseline =
  QCheck2.Test.make ~count:30
    ~name:"pipeline equals unreduced solve on random labeled MRMs"
    QCheck2.Gen.(int_range 0 20_000)
    (fun seed ->
      let seed64 = Int64.of_int seed in
      let m, labeling =
        Models.Random_mrm.generate_labeled ~seed:seed64
          Models.Random_mrm.default
      in
      let phi, psi = masks labeling in
      let time_bound, reward_bound = bounds ~seed:seed64 m in
      (* A truncation epsilon well below the comparison tolerance: the
         pipeline may change the uniformisation rate (pruning removes
         states), so full and reduced runs only agree up to the engines'
         truncation error. *)
      let solve = Perf.Engine.solve (Perf.Engine.Occupation_time { epsilon = 1e-14 }) in
      let baseline =
        Perf.Reduced.until_probabilities_via solve m ~phi ~psi ~time_bound
          ~reward_bound
      in
      let tel = Telemetry.create () in
      let piped =
        through_pipeline ~telemetry:tel solve m ~phi ~psi ~time_bound
          ~reward_bound
      in
      Array.iteri
        (fun s expected ->
          if Float.abs (expected -. piped.{s}) > 1e-12 then
            QCheck2.Test.fail_reportf
              "seed %d state %d: baseline %.17g, pipeline %.17g" seed s
              expected piped.{s})
        (Linalg.Vec.to_array baseline);
      if nothing_fired tel && piped <> baseline then
        QCheck2.Test.fail_reportf
          "seed %d: pipeline reported itself a no-op but the answers are \
           not bit-identical"
          seed;
      true)

let impulse_models_pass_through =
  QCheck2.Test.make ~count:21
    ~name:"impulse models bypass the pipeline bit-identically"
    (* The grafted seeds reach the impulse-free branch below with a
       reward bound the pruned model satisfies trivially. *)
    QCheck2.Gen.(
      graft_corners (int_range 0 20_000)
        [ 6842; 7962; 8909; 9999; 11453; 13571 ] ())
    (fun seed ->
      let seed64 = Int64.of_int seed in
      let m, labeling =
        Models.Random_mrm.generate_labeled ~seed:seed64
          Models.Random_mrm.with_impulses
      in
      let phi, psi = masks labeling in
      let time_bound, reward_bound = bounds ~seed:seed64 m in
      let run spec =
        let solve = Perf.Engine.solve spec in
        let baseline =
          Perf.Reduced.until_probabilities_via solve m ~phi ~psi ~time_bound
            ~reward_bound
        in
        let tel = Telemetry.create () in
        let piped =
          through_pipeline ~telemetry:tel solve m ~phi ~psi ~time_bound
            ~reward_bound
        in
        (baseline, piped, tel)
      in
      (* Theorem 1 may cut every impulse-carrying transition (absorbed
         states lose their transitions), leaving an impulse-free reduced
         model on which the pipeline legitimately runs; only when
         impulses survive must it stand aside entirely. *)
      if Markov.Mrm.has_impulses (Perf.Reduced.reduce m ~phi ~psi).Perf.Reduced.mrm
      then begin
        let baseline, piped, tel =
          run (Perf.Engine.Discretize { step = 1.0 /. 16.0 })
        in
        if piped <> baseline then
          QCheck2.Test.fail_reportf "seed %d: impulse model answers differ"
            seed;
        if counter tel "reduction.runs" <> 0 then
          QCheck2.Test.fail_reportf
            "seed %d: pipeline ran on a model with surviving impulses" seed
      end
      else begin
        (* Per-initial-state pruning can leave a restricted model whose
           reward bound holds trivially; Engine.solve then answers it
           exactly by transient analysis, while the unreduced baseline
           keeps an approximate engine's own error (O(d) for
           discretisation).  So this branch makes the claim of
           [pipeline_matches_baseline], under the engine with an
           a-priori bound. *)
        let baseline, piped, _ =
          run (Perf.Engine.Occupation_time { epsilon = 1e-14 })
        in
        Array.iteri
          (fun s expected ->
            if Float.abs (expected -. piped.{s}) > 1e-12 then
              QCheck2.Test.fail_reportf
                "seed %d state %d: baseline %.17g, pipeline %.17g" seed s
                expected piped.{s})
          (Linalg.Vec.to_array baseline)
      end;
      true)

let pool_dispatch_is_bit_identical =
  QCheck2.Test.make ~count:10
    ~name:"pooled per-initial-state dispatch is bit-identical"
    QCheck2.Gen.(int_range 0 20_000)
    (fun seed ->
      let seed64 = Int64.of_int seed in
      let m, labeling =
        Models.Random_mrm.generate_labeled ~seed:seed64
          Models.Random_mrm.default
      in
      let phi, psi = masks labeling in
      let time_bound, reward_bound = bounds ~seed:seed64 m in
      let solve = Perf.Engine.solve Perf.Engine.default in
      Parallel.Pool.with_pool ~jobs:3 (fun pool ->
          let seq =
            Perf.Reduced.until_probabilities_via solve m ~phi ~psi
              ~time_bound ~reward_bound
          in
          let pooled =
            Perf.Reduced.until_probabilities_via ~pool solve m ~phi ~psi
              ~time_bound ~reward_bound
          in
          if pooled <> seq then
            QCheck2.Test.fail_reportf "seed %d: Reduced pool dispatch differs"
              seed;
          let seq_pipe =
            through_pipeline solve m ~phi ~psi ~time_bound ~reward_bound
          in
          let pooled_pipe =
            through_pipeline ~pool solve m ~phi ~psi ~time_bound
              ~reward_bound
          in
          if pooled_pipe <> seq_pipe then
            QCheck2.Test.fail_reportf
              "seed %d: Reduction pool dispatch differs" seed);
      true)

let joint_matrix_pool_is_bit_identical =
  QCheck2.Test.make ~count:10
    ~name:"joint_matrix row accumulation is bit-identical under a pool"
    QCheck2.Gen.(int_range 0 20_000)
    (fun seed ->
      let m =
        Models.Random_mrm.generate ~seed:(Int64.of_int seed)
          Models.Random_mrm.default
      in
      let t = 1.5 in
      let r = 0.6 *. Markov.Mrm.max_reward m *. t in
      let seq = Perf.Sericola.joint_matrix m ~t ~r in
      Parallel.Pool.with_pool ~jobs:4 (fun pool ->
          let pooled = Perf.Sericola.joint_matrix ~pool m ~t ~r in
          if pooled <> seq then
            QCheck2.Test.fail_reportf "seed %d: joint_matrix differs" seed);
      true)

(* ------------------------------------------------------------------ *)
(* Planted symmetry: the quotient must hit the counting abstraction.   *)

let symmetry_configs =
  [ (0xBEEFL, { Models.Symmetric.default with components = 3 });
    (0x5EEDL, { Models.Symmetric.default with components = 4 });
    (0xACEDL,
     { Models.Symmetric.default with components = 3; local_states = 4 }) ]

let test_counting_abstraction () =
  List.iter
    (fun (seed, config) ->
      let m, labeling = Models.Symmetric.generate ~seed config in
      let l = Markov.Lumping.compute m labeling in
      Alcotest.(check int)
        (Printf.sprintf "quotient size (k=%d, l=%d)" config.components
           config.local_states)
        (Models.Symmetric.counting_states config)
        l.Markov.Lumping.n_blocks)
    symmetry_configs

let test_pipeline_hits_counting_abstraction () =
  List.iter
    (fun (seed, config) ->
      let m, labeling = Models.Symmetric.generate ~seed config in
      let n = Models.Symmetric.size config in
      let phi = Array.make n true in
      let psi = Markov.Labeling.sat labeling "all_top" in
      let tel = Telemetry.create () in
      let r = Perf.Reduction.prepare ~telemetry:tel m ~phi ~psi in
      (* Theorem 1 amalgamates the single all-top state into GOAL and
         adds an (unreachable) FAIL, so the pipeline sees l^k + 1 states
         and must collapse the tracked transient states to their
         multiset classes: counting - 1 blocks, plus GOAL and FAIL. *)
      let expected_before = n + 1 in
      let expected_after = Models.Symmetric.counting_states config + 1 in
      Alcotest.(check int) "stats.states_before" expected_before
        r.Perf.Reduction.stats.Perf.Reduction.states_before;
      Alcotest.(check int) "stats.states_after" expected_after
        r.Perf.Reduction.stats.Perf.Reduction.states_after;
      Alcotest.(check bool) "lumped" true
        r.Perf.Reduction.stats.Perf.Reduction.lumped;
      (* Telemetry mirrors the stats exactly. *)
      Alcotest.(check int) "telemetry states_before" expected_before
        (counter tel "reduction.states_before");
      Alcotest.(check int) "telemetry states_after" expected_after
        (counter tel "reduction.states_after");
      Alcotest.(check int) "telemetry runs" 1 (counter tel "reduction.runs"))
    symmetry_configs

let test_symmetric_answers_match () =
  let seed, config = List.hd symmetry_configs in
  let m, labeling = Models.Symmetric.generate ~seed config in
  let n = Models.Symmetric.size config in
  let phi = Array.make n true in
  let psi = Markov.Labeling.sat labeling "all_top" in
  let time_bound = 1.25 in
  let reward_bound = 0.5 *. Markov.Mrm.max_reward m *. time_bound in
  let solve = Perf.Engine.solve (Perf.Engine.Occupation_time { epsilon = 1e-12 }) in
  let baseline =
    Perf.Reduced.until_probabilities_via solve m ~phi ~psi ~time_bound
      ~reward_bound
  in
  let piped =
    through_pipeline solve m ~phi ~psi ~time_bound ~reward_bound
  in
  Array.iteri
    (fun s expected ->
      if Float.abs (expected -. piped.{s}) > 1e-12 then
        Alcotest.failf "state %d: baseline %.17g, pipeline %.17g" s expected
          piped.{s})
    (Linalg.Vec.to_array baseline)

let popcount s =
  let rec go s acc = if s = 0 then acc else go (s lsr 1) (acc + (s land 1)) in
  go s 0

(* The unreduced Theorem 1 answer of every state from one recursion.
   [Engine.solve_rows] is per-row [Engine.solve] bit for bit, so this is
   [Reduced.until_probabilities_via]'s vector without its one solve per
   state: 511 solves on the 9-processor model, about 100 s on a 2-core
   host. *)
let unreduced_rows spec m ~phi ~psi ~time_bound ~reward_bound =
  let red = Perf.Reduced.reduce m ~phi ~psi in
  let n = Markov.Mrm.n_states red.Perf.Reduced.mrm in
  let p =
    Perf.Problem.of_initial_state red.Perf.Reduced.mrm ~init:0
      ~goal:red.Perf.Reduced.goal ~time_bound ~reward_bound
  in
  let values = Perf.Engine.solve_rows spec p ~rows:(Array.init n Fun.id) in
  Linalg.Vec.init (Array.length phi) (fun s ->
      if psi.(s) then 1.0
      else if not phi.(s) then 0.0
      else values.(red.Perf.Reduced.state_map.(s)))

(* The tracked multiprocessor collapses onto the birth-death chain:
   [up U down] through the pipeline must give the unreduced answer and,
   per count of operational processors, the pooled model's.  Theorem 1
   leaves 2^n + 1 states (GOAL and an unreachable FAIL), which lump to
   one block per count plus GOAL and FAIL. *)
let test_tracked_multiprocessor_collapses () =
  let up_down labeling =
    (Markov.Labeling.sat labeling "up", Markov.Labeling.sat labeling "down")
  in
  let time_bound = 100.0 and reward_bound = 250.0 in
  let spec = Perf.Engine.Occupation_time { epsilon = 1e-12 } in
  let solve = Perf.Engine.solve spec in
  List.iter
    (fun n ->
      let c = { Models.Multiprocessor.default with n_processors = n } in
      let m = Models.Multiprocessor.tracked_mrm c in
      let phi, psi = up_down (Models.Multiprocessor.tracked_labeling c) in
      let tel = Telemetry.create () in
      let piped =
        through_pipeline ~telemetry:tel solve m ~phi ~psi ~time_bound
          ~reward_bound
      in
      let full =
        unreduced_rows spec m ~phi ~psi ~time_bound ~reward_bound
      in
      if n = 5 then
        Alcotest.(check bool) "rows oracle is until_probabilities_via" true
          (full
          = Perf.Reduced.until_probabilities_via solve m ~phi ~psi
              ~time_bound ~reward_bound);
      let pooled =
        let phi, psi = up_down (Models.Multiprocessor.labeling c) in
        Perf.Reduced.until_probabilities_via solve
          (Models.Multiprocessor.mrm c) ~phi ~psi ~time_bound ~reward_bound
      in
      Alcotest.(check int) "tracked size" ((1 lsl n) + 1)
        (counter tel "reduction.states_before");
      Alcotest.(check int) "quotient size" (n + 2)
        (counter tel "reduction.states_after");
      Linalg.Vec.iteri
        (fun s v ->
          if Float.abs (v -. full.{s}) > 1e-12 then
            Alcotest.failf "n = %d state %d: reduced %.17g vs full %.17g" n s
              v full.{s};
          let p = pooled.{popcount s} in
          if Float.abs (v -. p) > 1e-10 then
            Alcotest.failf "n = %d state %d: reduced %.17g vs pooled %.17g" n
              s v p)
        piped)
    [ 5; 9 ]

(* The asymmetric control: no stage fires on the ad hoc Q3 problem, so
   the pipeline runs, changes nothing and answers bit-identically. *)
let test_nothing_fired_is_identity () =
  let m = Models.Adhoc.mrm () in
  let sat = Markov.Labeling.sat (Models.Adhoc.labeling ()) in
  let phi = Array.map2 ( || ) (sat "call_idle") (sat "doze") in
  let psi = sat "call_initiated" in
  let solve = Perf.Engine.solve Perf.Engine.default in
  let tel = Telemetry.create () in
  let piped =
    through_pipeline ~telemetry:tel solve m ~phi ~psi ~time_bound:24.0
      ~reward_bound:600.0
  in
  Alcotest.(check int) "ad hoc Q3: pipeline ran" 1
    (counter tel "reduction.runs");
  Alcotest.(check bool) "ad hoc Q3: nothing fired" true (nothing_fired tel);
  Alcotest.(check bool) "ad hoc Q3: bit-identical" true
    (piped
    = Perf.Reduced.until_probabilities_via solve m ~phi ~psi ~time_bound:24.0
        ~reward_bound:600.0)

(* ---------------- golden per-state answers ------------------------ *)

(* The %h of every state's Checker answer, recorded before the P3 path
   moved to one occupation-time recursion per reachable-set group: the
   four P3 query shapes of the check-cold benchmark at fixed bounds, and
   two random models whose targets fall into several groups.  Large
   vectors are pinned by their distinct values and the MD5 of all
   per-state strings, joined by commas.  The P3 pins run the primal
   kernel directly, so they keep pinning the occupation-time recursion
   whichever side [Engine] would choose; [test_golden_dual] pins the
   Checker's own answers where it goes dual. *)

let multiprocessor_9 =
  { Models.Multiprocessor.n_processors = 9; failure_rate = 0.2;
    repair_rate = 1.0; capacity = 8; throughput_per_processor = 1.0 }

let random_9 seed =
  Models.Random_mrm.generate_labeled ~seed
    { Models.Random_mrm.default with n_states = 9 }

let hex_list v = List.init (Linalg.Vec.length v) (fun s -> Printf.sprintf "%h" v.{s})

let golden_answer mrm labeling text =
  let ctx = Checker.make mrm labeling in
  match Checker.eval_query ctx (Logic.Parser.query text) with
  | Checker.Numeric v -> hex_list v
  | _ -> Alcotest.fail "expected a numeric answer"

(* [Engine.solve_rows] at the Checker's default epsilon with the problem
   kept on its own side: the transient shortcut when the reward bound
   cannot bite, else one Sericola recursion. *)
let primal_rows (p : Perf.Problem.t) ~rows =
  if Perf.Problem.reward_trivially_satisfied p then
    Array.map
      (fun b ->
        let p = Perf.Problem.from_state p b in
        Markov.Transient.reachability
          (Markov.Mrm.ctmc p.Perf.Problem.mrm)
          ~init:p.Perf.Problem.init ~goal:p.Perf.Problem.goal
          ~t:p.Perf.Problem.time_bound)
      rows
  else Perf.Sericola.solve_rows ~epsilon:1e-9 p ~rows

(* The Checker's P3 path (Theorem 1, the reduction pipeline, one solve
   per reachable-set group) over the primal kernel. *)
let golden_primal mrm labeling ~phi ~psi ~time_bound ~reward_bound =
  let ctx = Checker.make mrm labeling in
  let sat f = Checker.sat ctx (Logic.Parser.state_formula f) in
  let phi = sat phi and psi = sat psi in
  let r = Perf.Reduction.prepare mrm ~phi ~psi in
  hex_list
    (Perf.Reduction.until_rows_on r primal_rows ~phi ~psi ~time_bound
       ~reward_bound)

let check_golden name answer expected =
  Alcotest.(check (list string)) name expected answer

let check_golden_digest name answer ~distinct ~digest =
  Alcotest.(check (list string)) (name ^ " distinct values") distinct
    (List.sort_uniq compare answer);
  Alcotest.(check string) (name ^ " digest") digest
    (Digest.to_hex (Digest.string (String.concat "," answer)))

(* Distinct strongly connected components among the pipeline states that
   need a solve: the number of reachable-set groups. *)
let reachable_set_groups mrm labeling ~phi ~psi =
  let phi = Logic.Parser.state_formula phi and psi = Logic.Parser.state_formula psi in
  let ctx = Checker.make mrm labeling in
  let phi = Checker.sat ctx phi and psi = Checker.sat ctx psi in
  let r = Perf.Reduction.prepare mrm ~phi ~psi in
  let scc =
    Graph.Scc.compute
      (Markov.Ctmc.graph (Markov.Mrm.ctmc r.Perf.Reduction.mrm))
  in
  let seen = Hashtbl.create 8 in
  Array.iteri
    (fun s b ->
      if phi.(s) && not psi.(s) then
        Hashtbl.replace seen
          scc.Graph.Scc.component.(r.Perf.Reduction.map.(b))
          ())
    r.Perf.Reduction.reduced.Perf.Reduced.state_map;
  Hashtbl.length seen

let adhoc_q3_primal =
  [ "0x1.fcecb5d2c8b9ep-2"; "0x1.fce21c378e0fep-2"; "0x1p+0"; "0x1p+0";
    "0x0p+0"; "0x0p+0"; "0x0p+0"; "0x0p+0"; "0x1.fcc757770b8a4p-2" ]

let adhoc_incoming_primal =
  [ "0x1.19d8c8e33da76p-4"; "0x1.06e116fd5323bp-4"; "0x1.3b04c0406ee64p-7";
    "0x1.21134c7a60eebp-7"; "0x1p+0"; "0x1p+0"; "0x0p+0"; "0x0p+0";
    "0x1.59db7abf71b48p-5" ]

let test_golden_answers () =
  let adhoc = Models.Adhoc.mrm () and adhoc_labels = Models.Adhoc.labeling () in
  check_golden "adhoc Q3"
    (golden_primal adhoc adhoc_labels ~phi:"call_idle | doze"
       ~psi:"call_initiated" ~time_bound:24.0 ~reward_bound:600.0)
    adhoc_q3_primal;
  check_golden "adhoc incoming"
    (golden_primal adhoc adhoc_labels ~phi:"!call_active"
       ~psi:"call_incoming" ~time_bound:0.4 ~reward_bound:16.0)
    adhoc_incoming_primal;
  let c = Models.Cluster.default in
  check_golden "cluster"
    (golden_primal (Models.Cluster.mrm c) (Models.Cluster.labeling c)
       ~phi:"available" ~psi:"down" ~time_bound:600.0 ~reward_bound:11000.0)
    (List.init 11 (fun _ -> "0x1p+0")
    @ [ "0x1.b936ebfc9381bp-3"; "0x1p+0"; "0x1.97ee3422570f5p-3"; "0x1p+0";
        "0x1.965ad30cc5ebfp-3"; "0x1p+0"; "0x1.95edbcf9a1d14p-3" ]);
  check_golden_digest "9-processor tracked"
    (golden_primal
       (Models.Multiprocessor.tracked_mrm multiprocessor_9)
       (Models.Multiprocessor.tracked_labeling multiprocessor_9)
       ~phi:"up" ~psi:"down" ~time_bound:11.0 ~reward_bound:55.0)
    ~distinct:
      [ "0x1.02424e2271002p-5"; "0x1.0cb7d4e7ea68dp-3"; "0x1.166a51c869abap-2";
        "0x1.20a7a4d9cc646p-6"; "0x1.49df6bfc08eedp-4"; "0x1.4b75d24759f93p-6";
        "0x1.509c7a9c8ac18p-5"; "0x1.9735b0a601822p-6"; "0x1.c81ab68ea52aap-5";
        "0x1p+0" ]
    ~digest:"987915f2d157815a557d7f5f419f2e40";
  List.iter
    (fun (seed, groups, expected) ->
      let m, labeling = random_9 seed in
      let name = Printf.sprintf "random seed %Ld" seed in
      Alcotest.(check int) (name ^ " groups") groups
        (reachable_set_groups m labeling ~phi:"a | b" ~psi:"c");
      check_golden name
        (golden_primal m labeling ~phi:"a | b" ~psi:"c" ~time_bound:2.0
           ~reward_bound:3.0)
        expected)
    [ ( 10L, 3,
        [ "0x0p+0"; "0x1p+0"; "0x0p+0"; "0x0p+0"; "0x1.4e23c852d537ep-1";
          "0x1.ffc1cd8bb8646p-1"; "0x0p+0"; "0x0p+0"; "0x1p+0" ] );
      ( 19L, 4,
        [ "0x1p+0"; "0x1.2e48823da65f7p-2"; "0x1p+0"; "0x0p+0"; "0x0p+0";
          "0x0p+0"; "0x1.d14dd44483d4cp-2"; "0x0p+0"; "0x1.3d18913c08585p-4" ]
      ) ]

(* The Checker's own answers where the engine solves the dual: the ad
   hoc Q3 (q = 468 against q~ = 117) and ad hoc incoming (q = 174
   against 34.08), recorded when the side choice landed.  Each lies
   within 2 epsilon of the primal pin above, epsilon being the Checker's
   default 1e-9. *)
let test_golden_dual () =
  let adhoc = Models.Adhoc.mrm () and adhoc_labels = Models.Adhoc.labeling () in
  List.iter
    (fun (name, query, expected, primal) ->
      let answer = golden_answer adhoc adhoc_labels query in
      check_golden name answer expected;
      List.iter2
        (fun dual primal ->
          let d = float_of_string dual and p = float_of_string primal in
          if Float.abs (d -. p) > 2e-9 then
            Alcotest.failf "%s: dual %h is %g away from primal %h" name d
              (Float.abs (d -. p)) p)
        answer primal)
    [ ( "adhoc Q3 (dual)",
        "P=? ( (call_idle | doze) U[t<=24][r<=600] call_initiated )",
        [ "0x1.fcecb5d2db9c1p-2"; "0x1.fce21c37a0ea2p-2"; "0x1p+0"; "0x1p+0";
          "0x0p+0"; "0x0p+0"; "0x0p+0"; "0x0p+0"; "0x1.fcc757771e507p-2" ],
        adhoc_q3_primal );
      ( "adhoc incoming (dual)",
        "P=? ( !call_active U[t<=0.4][r<=16] call_incoming )",
        [ "0x1.19d8c8df0043ap-4"; "0x1.06e116f90884fp-4";
          "0x1.3b04c03b9b08ap-7"; "0x1.21134c7580d81p-7"; "0x1p+0"; "0x1p+0";
          "0x0p+0"; "0x0p+0"; "0x1.59db7ab7ad8f6p-5" ],
        adhoc_incoming_primal ) ]

(* The %h of the paths the golden per-state answers do not reach,
   recorded before the Sericola layer kernel, the digraph and the
   lumping signatures were rewritten: the kernel's width-n path
   (joint_matrix), its multi-bound series (solve_many), a steady-state
   sum over several bottom components (their numbering orders it), an
   unbounded until (prob0/prob1 reachability) and the pipeline with the
   merge, init pruning and the quotient all firing. *)

let test_golden_paths () =
  let hex = Printf.sprintf "%h" in
  let adhoc = Models.Adhoc.mrm () in
  let joint = Perf.Sericola.joint_matrix adhoc ~t:0.5 ~r:100.0 in
  let cells =
    List.concat_map (fun row -> Array.to_list (Array.map hex row))
      (Array.to_list joint)
  in
  Alcotest.(check int) "adhoc joint matrix distinct values" 81
    (List.length (List.sort_uniq compare cells));
  Alcotest.(check string) "adhoc joint matrix digest"
    "3273c81dd40f2aef3c248768a462fd6c"
    (Digest.to_hex (Digest.string (String.concat "," cells)));
  check_golden "adhoc joint matrix, initial row"
    (Array.to_list (Array.map hex joint.(Models.Adhoc.initial_state)))
    [ "0x1.0f05b67c5e0eap-9"; "0x1.fefcb92f9fce1p-10"; "0x1.fedda55b4283dp-19";
      "0x1.da4cc321131dcp-19"; "0x1.c94be8ae44902p-18"; "0x1.a407494a259a1p-18";
      "0x1.1427dc513a4eap-10"; "0x1.4a1a73d2f7233p-11"; "0x1.36d48580ba63bp-10"
    ];
  let q3 =
    let sat = Markov.Labeling.sat (Models.Adhoc.labeling ()) in
    let phi = Array.map2 ( || ) (sat "call_idle") (sat "doze") in
    Perf.Reduced.problem
      (Perf.Reduced.reduce adhoc ~phi ~psi:(sat "call_initiated"))
      ~init:(Linalg.Vec.unit 9 Models.Adhoc.initial_state)
      ~time_bound:24.0 ~reward_bound:600.0
  in
  check_golden "adhoc Q3 solve_many"
    (Array.to_list
       (Array.map hex
          (Perf.Sericola.solve_many q3 ~reward_bounds:[| 300.0; 600.0; 900.0 |])))
    [ "0x1.d8a80abfa37a6p-2"; "0x1.fcecb5db3c94p-2"; "0x1.ffc2717432312p-2" ];
  (* Seed 11's bottom components are {2, 7}, {8} and {1}. *)
  let m, labeling = random_9 11L in
  check_golden "random seed 11 steady state"
    (golden_answer m labeling "S=? ( c )")
    [ "0x1.a2aa2bc29b884p-3"; "0x1p+0"; "0x1.8ebd652600f6fp-2";
      "0x1.8ebd652600f6fp-2"; "0x1.a10a4b9f1a6dep-3"; "0x1.a2aa2bc29b8fdp-3";
      "0x1.510deca614f4fp-1"; "0x1.8ebd652600f6fp-2"; "0x0p+0" ];
  let m, labeling = random_9 22L in
  check_golden "random seed 22 unbounded until"
    (golden_answer m labeling "P=? ( (a | b) U c )")
    [ "0x0p+0"; "0x0p+0"; "0x1p+0"; "0x1p+0"; "0x1.965f7020c8d9cp-3";
      "0x1.6b336d5be09cp-1"; "0x0p+0"; "0x1p+0"; "0x0p+0" ];
  (* Seven tracked processors, Phi = popcount in {2, 4, 5, 7}, Psi =
     popcount 3, pinned at a five-processor state: the all-up state can
     reach Psi only through FAIL (the merge fires), the rest lumps by
     popcount, and no reachable-set group reaches every block (init
     pruning fires). *)
  let c =
    { Models.Multiprocessor.n_processors = 7; failure_rate = 0.2;
      repair_rate = 1.0; capacity = 5; throughput_per_processor = 1.0 }
  in
  let m = Models.Multiprocessor.tracked_mrm c in
  let n = Markov.Mrm.n_states m in
  let phi = Array.init n (fun s -> List.mem (popcount s) [ 2; 4; 5; 7 ]) in
  let psi = Array.init n (fun s -> popcount s = 3) in
  let tel = Telemetry.create () in
  let v =
    through_pipeline ~telemetry:tel (Perf.Sericola.solve ~epsilon:1e-12) m
      ~phi ~psi ~time_bound:2.0 ~reward_bound:8.0
  in
  Alcotest.(check string) "7-processor pipeline" "0x1.bfed9c29ffeb5p-3"
    (hex v.{0b0011111});
  Alcotest.(check (list int)) "7-processor stages"
    [ 80; 5; 1; 1; 7 ]
    (List.map (counter tel)
       [ "reduction.states_before"; "reduction.states_after";
         "reduction.pruned_states"; "reduction.lumped";
         "reduction.init_pruned_states" ])

let suite =
  ( "reduction",
    [ QCheck_alcotest.to_alcotest pipeline_matches_baseline;
      QCheck_alcotest.to_alcotest impulse_models_pass_through;
      QCheck_alcotest.to_alcotest pool_dispatch_is_bit_identical;
      QCheck_alcotest.to_alcotest joint_matrix_pool_is_bit_identical;
      Alcotest.test_case "counting abstraction" `Quick
        test_counting_abstraction;
      Alcotest.test_case "pipeline hits counting abstraction" `Quick
        test_pipeline_hits_counting_abstraction;
      Alcotest.test_case "symmetric answers match" `Quick
        test_symmetric_answers_match;
      Alcotest.test_case "tracked multiprocessor collapses" `Quick
        test_tracked_multiprocessor_collapses;
      Alcotest.test_case "no-op pipeline is identity" `Quick
        test_nothing_fired_is_identity;
      Alcotest.test_case "golden per-state answers" `Quick test_golden_answers;
      Alcotest.test_case "golden dual answers" `Quick test_golden_dual;
      Alcotest.test_case "golden kernel, graph and pipeline paths" `Quick
        test_golden_paths
    ] )
