(* Bench harness: regenerates every table and figure of the paper's
   evaluation (Section 5) from this library, plus Bechamel
   micro-benchmarks of the three computational procedures.

     dune exec bench/main.exe            # everything (fast settings)
     dune exec bench/main.exe -- table3  # one artifact
     dune exec bench/main.exe -- --full  # include the slow corners
                                         # (k = 1024, d = 1/256)

   Absolute CPU times differ from the paper's 2002-era Pentium III; the
   claims reproduced here are the values, orderings and growth rates.

   NOTE on values: the model built from the published Table 1 evaluates
   Q3 to 0.49699673 (all three engines + Monte-Carlo agree); the paper
   prints 0.49540399, so the authors' experiments used a slightly
   different parameterisation than their published table.  Each table is
   therefore printed twice: once for the published Table 1 model, and
   once with the reward bound calibrated to r = 550 (the setting that
   reproduces the paper's numbers to ~3e-6).  See EXPERIMENTS.md. *)

let paper_q3 = 0.49540399
let calibrated_r = 550.0

(* ------------------------------------------------------------------ *)

let q3_problem ~r =
  let m = Models.Adhoc.mrm () in
  let l = Models.Adhoc.labeling () in
  let idle = Markov.Labeling.sat l "call_idle" in
  let doze = Markov.Labeling.sat l "doze" in
  let phi = Array.mapi (fun i a -> a || doze.(i)) idle in
  let psi = Markov.Labeling.sat l "call_initiated" in
  let red = Perf.Reduced.reduce m ~phi ~psi in
  let init = Linalg.Vec.unit 9 Models.Adhoc.initial_state in
  Perf.Reduced.problem red ~init ~time_bound:24.0 ~reward_bound:r

(* Wall-clock (monotonic) timing: the parallel kernels spread the work
   over several domains, so CPU time (Sys.time) would hide any speedup. *)
let timed f =
  let start = Monotonic_clock.now () in
  let result = f () in
  let stop = Monotonic_clock.now () in
  (result, Int64.to_float (Int64.sub stop start) /. 1e9)

let print_caches caches =
  List.iter
    (fun (name, (c : Numerics.Memo.counters)) ->
      Printf.printf "  cache %-10s %3d lookups, %3d hits (%.0f%%)\n" name
        c.Numerics.Memo.lookups c.Numerics.Memo.hits
        (100.0 *. Numerics.Memo.hit_rate c))
    caches

(* Domain pool shared by every artifact; --jobs N selects its size
   (default 1 = the exact sequential code). *)
let jobs = ref 1
let pool = ref Parallel.Pool.sequential

(* Session-wide telemetry, enabled by --trace FILE / --stats: per-run
   recorders (one per procedure in the `perf` artifact) are absorbed into
   it, and it is dumped at the end of the session. *)
let trace_path : string option ref = ref None
let stats = ref false
let session_telemetry : Telemetry.t option ref = ref None
let monotonic_seconds () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let reference_value ~r =
  Perf.Sericola.solve ~epsilon:1e-10 ~pool:!pool (q3_problem ~r)

let heading title =
  Printf.printf "\n=== %s %s\n"
    title
    (String.make (Stdlib.max 0 (70 - String.length title)) '=')

let subheading text = Printf.printf "\n--- %s\n" text

(* ------------------------------------------------------------------ *)

let table1 _full =
  heading "Table 1: transition rates and rewards of the SRN (Figure 2)";
  print_string
    (Io.Table.render
       ~aligns:[ Io.Table.Left ]
       ~header:[ "transition"; "mean time"; "rate (per hour)" ]
       (List.map
          (fun (name, rate, mean) -> [ name; mean; Printf.sprintf "%g" rate ])
          Models.Adhoc.Rates.all));
  print_newline ();
  print_string
    (Io.Table.render
       ~aligns:[ Io.Table.Left ]
       ~header:[ "place"; "reward" ]
       (List.map
          (fun (name, power) -> [ name; Printf.sprintf "%g mA" power ])
          Models.Adhoc.Power.all));
  Printf.printf
    "\nbattery capacity %g mAh; basic time unit 1 h; basic reward unit 1 mA\n"
    Models.Adhoc.battery_capacity

(* Table 2: the occupation-time (Sericola) algorithm over epsilon. *)
let table2_for ~label ~r =
  subheading label;
  let rows =
    List.map
      (fun eps ->
        let p = q3_problem ~r in
        let d, time =
          timed (fun () ->
              Perf.Sericola.solve_detailed ~epsilon:eps ~pool:!pool p)
        in
        [ Printf.sprintf "%.0e" eps;
          string_of_int d.Perf.Sericola.steps;
          Printf.sprintf "%.8f" d.Perf.Sericola.probability;
          Io.Table.seconds time ])
      [ 1e-1; 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-7; 1e-8 ]
  in
  print_string
    (Io.Table.render ~header:[ "eps"; "N"; "numerical value"; "time" ] rows)

let table2 _full =
  heading "Table 2: occupation time distributions (Sericola)";
  table2_for ~label:"published Table 1 model (r = 600)" ~r:600.0;
  table2_for
    ~label:
      (Printf.sprintf "paper-calibrated model (r = %g; paper value %.8f)"
         calibrated_r paper_q3)
    ~r:calibrated_r;
  Printf.printf
    "\npaper's column:  N = 496..594 (identical), values 0.44831203 -> \
     0.49540399\n"

(* Table 3: the pseudo-Erlang approximation over the number of phases. *)
let table3_for ~label ~r ~max_k =
  subheading label;
  let reference = reference_value ~r in
  let ks =
    List.filter (fun k -> k <= max_k) [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]
  in
  let rows =
    List.map
      (fun k ->
        let p = q3_problem ~r in
        let v, time =
          timed (fun () ->
              Perf.Erlang_approx.solve ~epsilon:1e-10 ~phases:k ~pool:!pool p)
        in
        [ string_of_int k;
          Printf.sprintf "%.8f" v;
          Printf.sprintf "%.2f%%"
            (100.0 *. Numerics.Float_utils.relative_error ~reference v);
          Io.Table.seconds time ])
      ks
  in
  print_string
    (Io.Table.render
       ~header:[ "k"; "numerical value"; "relative error"; "time" ]
       rows)

let table3 full =
  heading "Table 3: pseudo-Erlang approximation";
  let max_k = if full then 1024 else 256 in
  table3_for ~label:"published Table 1 model (r = 600)" ~r:600.0 ~max_k;
  table3_for
    ~label:(Printf.sprintf "paper-calibrated model (r = %g)" calibrated_r)
    ~r:calibrated_r ~max_k;
  Printf.printf
    "\npaper's column: 0.41067 (k=1, 17.1%%) -> 0.49535 (k=1024, 0.01%%), \
     converging from below\n"

(* Table 4: the Tijms-Veldman discretisation over the step size. *)
let table4_for ~label ~r ~steps =
  subheading label;
  let reference = reference_value ~r in
  let rows =
    List.map
      (fun denom ->
        let p = q3_problem ~r in
        let v, time =
          timed (fun () ->
              Perf.Discretization.solve ~step:(1.0 /. denom) ~pool:!pool p)
        in
        [ Printf.sprintf "1/%.0f" denom;
          Printf.sprintf "%.8f" v;
          Printf.sprintf "%.3f%%"
            (100.0 *. Numerics.Float_utils.relative_error ~reference v);
          Io.Table.seconds time ])
      steps
  in
  print_string
    (Io.Table.render
       ~header:[ "d"; "numerical value"; "relative error"; "time" ]
       rows)

let table4 full =
  heading "Table 4: Tijms-Veldman discretisation";
  let steps = if full then [ 32.0; 64.0; 128.0; 256.0 ] else [ 32.0; 64.0; 128.0 ] in
  table4_for ~label:"published Table 1 model (r = 600)" ~r:600.0 ~steps;
  table4_for
    ~label:(Printf.sprintf "paper-calibrated model (r = %g)" calibrated_r)
    ~r:calibrated_r ~steps;
  Printf.printf
    "\npaper's column: 0.49567 (d=1/32, 0.05%%) -> 0.49544 (d=1/256, \
     <0.01%%), time growing ~4x per halving\n"

(* Section 5.4's Q1/Q2 values (checked with the standard P2/P1 recipes). *)
let q1q2 _full =
  heading "Q1 and Q2 (Section 5.3): standard P2/P1 checking";
  let ctx =
    Checker.make ~epsilon:1e-10 ~pool:!pool ?telemetry:!session_telemetry
      (Models.Adhoc.mrm ()) (Models.Adhoc.labeling ())
  in
  List.iter
    (fun (name, verdict_text, query_text) ->
      let probs, time =
        timed (fun () ->
            match Checker.eval_query ctx (Logic.Parser.query query_text) with
            | Checker.Numeric v -> v
            | _ -> assert false)
      in
      let holds =
        Checker.holds ctx
          (Logic.Parser.state_formula verdict_text)
          Models.Adhoc.initial_state
      in
      Printf.printf "%s: %s\n  value %.8f -> %s  (%s)\n" name verdict_text
        probs.{Models.Adhoc.initial_state}
        (if holds then "HOLDS" else "does NOT hold")
        (Io.Table.seconds time))
    [ ("Q1", Models.Adhoc.q1, "P=? ( F[r<=600] call_incoming )");
      ("Q2", Models.Adhoc.q2, "P=? ( F[t<=24] call_incoming )");
      ("Q3", Models.Adhoc.q3,
       "P=? ( (call_idle | doze) U[t<=24][r<=600] call_initiated )") ]

(* Figure 1: the two-dimensional process (X_t, Y_t) — sample paths plus
   an empirical estimate of the quantity of Theorem 2. *)
let figure1 _full =
  heading "Figure 1: the 2-D process (X_t, Y_t) with the reward barrier";
  let p = q3_problem ~r:600.0 in
  let m = p.Perf.Problem.mrm in
  let names = [| "idle/idle"; "idle/active"; "doze"; "GOAL"; "FAIL" |] in
  let rng = Sim.Rng.create ~seed:468L in
  Printf.printf
    "three sampled trajectories of the reduced model (t <= 24, barrier at \
     Y = 600):\n";
  for k = 1 to 3 do
    Printf.printf "path %d:\n" k;
    let tr = Sim.Trajectory.sample rng m ~init:0 ~horizon:24.0 in
    List.iter
      (fun step ->
        Printf.printf "  t=%7.3f  Y=%8.2f  -> %s\n"
          step.Sim.Trajectory.entered_at step.Sim.Trajectory.reward_on_entry
          names.(step.Sim.Trajectory.state))
      tr.Sim.Trajectory.steps;
    Printf.printf "  t= 24.000  Y=%8.2f  in %s%s\n"
      tr.Sim.Trajectory.final_reward
      names.(tr.Sim.Trajectory.final_state)
      (if tr.Sim.Trajectory.final_reward > 600.0 then "  [barrier crossed]"
       else "")
  done;
  let samples = 100_000 in
  let iv, time =
    timed (fun () ->
        Sim.Estimate.reward_bounded_reachability rng m ~init:0
          ~goal:p.Perf.Problem.goal ~time_bound:24.0 ~reward_bound:600.0
          ~samples)
  in
  let numerical = reference_value ~r:600.0 in
  Printf.printf
    "\nPr{Y_24 <= 600, X_24 = GOAL}: simulation %.5f +- %.5f (%d paths, %s) \
     vs numerical %.8f\n"
    iv.Sim.Estimate.mean iv.Sim.Estimate.half_width samples
    (Io.Table.seconds time) numerical

(* Figure 2: the SRN and its reachability graph. *)
let figure2 _full =
  heading "Figure 2: the stochastic reward net of the mobile station";
  let space = Models.Adhoc_srn.state_space () in
  Printf.printf "places (%d): %s\n"
    (Petri.Srn.n_places space.Petri.Reachability.net)
    (String.concat ", "
       (Array.to_list (Petri.Srn.place_names space.Petri.Reachability.net)));
  Printf.printf "reachable markings (%d):\n" (Petri.Reachability.n_states space);
  Array.iteri
    (fun i m ->
      Printf.printf "  %d: %s\n" i
        (Format.asprintf "%a" (Petri.Srn.pp_marking space.Petri.Reachability.net) m))
    space.Petri.Reachability.markings;
  Printf.printf "transitions of the marking graph:\n";
  List.iter
    (fun (src, name, rate, dst) ->
      Printf.printf "  %d --%s(%g)--> %d\n" src name rate dst)
    space.Petri.Reachability.edges;
  print_newline ();
  print_string "DOT rendering of the net itself:\n";
  print_string (Petri.Dot.net space.Petri.Reachability.net)

(* Ablations of the design choices DESIGN.md calls out. *)
let ablation _full =
  heading "Ablations";

  subheading "(a) Sericola: vector-based vs full-matrix recursion";
  (* The vector form (an optimisation over the paper's presentation)
     carries one column through the C(h,n,k) recursion; the matrix form
     carries |S| columns and additionally yields the whole H(t,r). *)
  let p = q3_problem ~r:600.0 in
  let reduced_mrm = p.Perf.Problem.mrm in
  List.iter
    (fun eps ->
      let v1, t_vec =
        timed (fun () -> Perf.Sericola.solve ~epsilon:eps p)
      in
      let h, t_mat =
        timed (fun () -> Perf.Sericola.joint_matrix ~epsilon:eps reduced_mrm
                  ~t:24.0 ~r:600.0)
      in
      (* Consistency: H row of the initial state vs the vector answer. *)
      let trans =
        Markov.Transient.reachability ~epsilon:1e-12
          (Markov.Mrm.ctmc reduced_mrm)
          ~init:p.Perf.Problem.init ~goal:p.Perf.Problem.goal ~t:24.0
      in
      let from_matrix = trans -. h.(0).(3) in
      Printf.printf
        "  eps=%.0e  vector %.8f (%s)   matrix %.8f (%s)   speedup %.1fx\n"
        eps v1 (Io.Table.seconds t_vec) from_matrix (Io.Table.seconds t_mat)
        (t_mat /. Float.max 1e-9 t_vec))
    [ 1e-4; 1e-6; 1e-8 ];

  subheading "(b) Theorem 1: amalgamating the absorbing classes (5 vs 9 states)";
  let m = Models.Adhoc.mrm () in
  let l = Models.Adhoc.labeling () in
  let idle = Markov.Labeling.sat l "call_idle" in
  let doze = Markov.Labeling.sat l "doze" in
  let phi = Array.mapi (fun i a -> a || doze.(i)) idle in
  let psi = Markov.Labeling.sat l "call_initiated" in
  (* Without amalgamation: absorb in place and keep all nine states. *)
  let absorb = Array.init 9 (fun s -> psi.(s) || not phi.(s)) in
  let chain = Markov.Transform.make_absorbing (Markov.Mrm.ctmc m) ~absorb in
  let rewards = Linalg.Vec.to_array (Markov.Mrm.rewards m) in
  Array.iteri (fun s a -> if a then rewards.(s) <- 0.0) absorb;
  let nine = Markov.Mrm.make chain ~rewards in
  let p9 =
    Perf.Problem.of_initial_state nine ~init:Models.Adhoc.initial_state
      ~goal:psi ~time_bound:24.0 ~reward_bound:600.0
  in
  let v9, t9 = timed (fun () -> Perf.Sericola.solve ~epsilon:1e-8 p9) in
  let v5, t5 =
    timed (fun () -> Perf.Sericola.solve ~epsilon:1e-8 (q3_problem ~r:600.0))
  in
  Printf.printf "  9 states (no amalgamation): %.8f (%s)\n" v9
    (Io.Table.seconds t9);
  Printf.printf "  5 states (Theorem 1):       %.8f (%s)\n" v5
    (Io.Table.seconds t5);

  subheading "(c) uniformisation-rate overshoot: N_eps vs lambda";
  (* The paper notes the Erlang expansion raises the uniformisation rate by
     k * rho_max / r and thereby the number of steps. *)
  List.iter
    (fun factor ->
      let lambda = 19.5 *. factor in
      let n =
        Numerics.Poisson.right_truncation_point ~lambda:(lambda *. 24.0)
          ~epsilon:1e-8
      in
      Printf.printf "  lambda = %6.1f (x%g)  ->  N_1e-8 = %d\n" lambda factor n)
    [ 1.0; 2.0; 4.0; 8.0 ];

  subheading "(d) stationary detection on long-horizon transient analysis";
  (* The closing wish of the paper's Section 5.4 — shortening long
     uniformisation series by detecting convergence — applied to plain
     transient analysis. *)
  let c9 = Markov.Mrm.ctmc (Models.Adhoc.mrm ()) in
  let init9 = Linalg.Vec.unit 9 Models.Adhoc.initial_state in
  List.iter
    (fun t ->
      let plain, t_plain =
        timed (fun () ->
            Markov.Transient.distribution ~epsilon:1e-10 c9 ~init:init9 ~t)
      in
      let detected, t_detect =
        timed (fun () ->
            Markov.Transient.distribution ~epsilon:1e-10
              ~stationary_detection:1e-13 c9 ~init:init9 ~t)
      in
      Printf.printf
        "  t = %-7g plain %s, detected %s (speedup %.0fx, max diff %.1e)\n" t
        (Io.Table.seconds t_plain) (Io.Table.seconds t_detect)
        (t_plain /. Float.max 1e-9 t_detect)
        (Linalg.Vec.linf_dist plain detected))
    [ 24.0; 240.0; 2400.0 ];

  subheading "(e) Gauss-Seidel vs Jacobi on an unbounded-until system";
  let c = Models.Cluster.default in
  let cm = Models.Cluster.mrm c in
  let cl = Models.Cluster.labeling c in
  let phi = Markov.Labeling.sat cl "switch_up" in
  let psi = Array.map not (Markov.Labeling.sat cl "available") in
  let emb = Markov.Ctmc.embedded (Markov.Mrm.ctmc cm) in
  let n = Markov.Mrm.n_states cm in
  let open_state s = phi.(s) && not psi.(s) in
  let triples = ref [] and b = Linalg.Vec.create n in
  for s = 0 to n - 1 do
    if open_state s then
      Linalg.Csr.iter_row emb s (fun s' pr ->
          if psi.(s') then b.{s} <- b.{s} +. pr
          else if open_state s' then triples := (s, s', pr) :: !triples)
  done;
  let a = Linalg.Csr.of_coo ~rows:n ~cols:n !triples in
  let gs = Linalg.Solvers.gauss_seidel_fixpoint ~tol:1e-12 a ~b in
  let jac = Linalg.Solvers.jacobi_fixpoint ~tol:1e-12 a ~b in
  Printf.printf "  gauss-seidel: %d sweeps;  jacobi: %d sweeps (same fixpoint: %b)\n"
    gs.Linalg.Solvers.iterations jac.Linalg.Solvers.iterations
    (Linalg.Vec.linf_dist gs.Linalg.Solvers.solution
       jac.Linalg.Solvers.solution < 1e-9)

(* Bechamel micro-benchmarks: one per reproduced table. *)
let micro _full =
  heading "Bechamel micro-benchmarks (one per table)";
  let open Bechamel in
  let p600 = q3_problem ~r:600.0 in
  let tests =
    Test.make_grouped ~name:"perfcheck"
      [ Test.make ~name:"table2: sericola eps=1e-4"
          (Staged.stage (fun () ->
               ignore (Perf.Sericola.solve ~epsilon:1e-4 p600)));
        Test.make ~name:"table3: pseudo-erlang k=64"
          (Staged.stage (fun () ->
               ignore (Perf.Erlang_approx.solve ~epsilon:1e-6 ~phases:64 p600)));
        Test.make ~name:"table4: discretise d=1/32"
          (Staged.stage (fun () ->
               ignore (Perf.Discretization.solve ~step:(1.0 /. 32.0) p600)));
        Test.make ~name:"q2: transient analysis"
          (Staged.stage (fun () ->
               let m = Models.Adhoc.mrm () in
               let l = Models.Adhoc.labeling () in
               let goal = Markov.Labeling.sat l "call_incoming" in
               ignore
                 (Markov.Transient.reachability_all ~epsilon:1e-9
                    (Markov.Mrm.ctmc m) ~goal ~t:24.0)));
        Test.make ~name:"formula parsing"
          (Staged.stage (fun () ->
               ignore
                 (Logic.Parser.state_formula
                    "P>0.5 ( (call_idle | doze) U[t<=24][r<=600] \
                     call_initiated )"))) ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let nanos =
        match Analyze.OLS.estimates result with
        | Some [ est ] -> est
        | _ -> Float.nan
      in
      rows := [ name; Printf.sprintf "%.3f ms" (nanos /. 1e6) ] :: !rows)
    results;
  print_string
    (Io.Table.render
       ~aligns:[ Io.Table.Left ]
       ~header:[ "benchmark"; "time per run" ]
       (List.sort compare !rows))

(* One timed run of each procedure on the Q3 problem, written as
   machine-readable JSON (BENCH_perf.json) so CI and the bench-smoke
   alias can track the parallel engine without scraping tables.  The
   --full settings are the slow corners (k = 1024, d = 1/256) where the
   domain pool pays off; the fast settings keep `dune runtest` quick. *)
let perf full =
  heading "perf: wall-clock engine timings -> BENCH_perf.json";
  let p = q3_problem ~r:600.0 in
  let size = Markov.Mrm.n_states p.Perf.Problem.mrm in
  let phases = if full then 1024 else 64 in
  let denom = if full then 256.0 else 32.0 in
  let runs =
    [ ("occupation-time", size,
       fun tel ->
         ignore (Perf.Sericola.solve ~epsilon:1e-8 ~pool:!pool ~telemetry:tel p));
      ("pseudo-erlang", (size * phases) + 1,
       fun tel ->
         ignore
           (Perf.Erlang_approx.solve ~epsilon:1e-10 ~phases ~pool:!pool
              ~telemetry:tel p));
      ("discretisation", size,
       fun tel ->
         ignore
           (Perf.Discretization.solve ~step:(1.0 /. denom) ~pool:!pool
              ~telemetry:tel p)) ]
  in
  let entries =
    List.map
      (fun (procedure, size, f) ->
        (* One fresh recorder per procedure: the JSON entry carries that
           run's convergence counters, and the session recorder (if any)
           accumulates them all.  Timing is the median of five runs after
           one discarded warmup (which pages in code, sizes the minor heap
           and fills the Fox-Glynn memo); the min-max spread across the
           five kept runs is recorded alongside so a noisy host is visible
           in the artifact instead of silently skewing the number. *)
        let run_telemetry = Telemetry.create ~clock:monotonic_seconds () in
        let (), _warmup = timed (fun () -> f run_telemetry) in
        let samples =
          Array.init 5 (fun _ ->
              let tel = Telemetry.create ~clock:monotonic_seconds () in
              let (), seconds = timed (fun () -> f tel) in
              Option.iter
                (fun session -> Telemetry.absorb session (Telemetry.report tel))
                !session_telemetry;
              seconds)
        in
        let sorted = Array.copy samples in
        Array.sort compare sorted;
        let seconds = sorted.(2) in
        let spread = sorted.(4) -. sorted.(0) in
        Printf.printf "  %-16s (%5d states, %d jobs)  %s  (+/- %s)\n" procedure
          size !jobs (Io.Table.seconds seconds) (Io.Table.seconds spread);
        Io.Json.Object
          [ ("procedure", Io.Json.String procedure);
            ("size", Io.Json.Number (float_of_int size));
            ("jobs", Io.Json.Number (float_of_int !jobs));
            ("seconds", Io.Json.Number seconds);
            ("runs", Io.Json.Number 5.0);
            ("spread_seconds", Io.Json.Number spread);
            ("telemetry", Io.Trace.to_json run_telemetry) ])
      runs
  in
  let doc =
    Io.Json.Object
      [ ("bench", Io.Json.String "perf");
        ("full", Io.Json.Bool full);
        ("entries", Io.Json.List entries) ]
  in
  let oc = open_out "BENCH_perf.json" in
  output_string oc (Io.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_perf.json (%d entries)\n" (List.length entries)

(* The batched multi-query engine vs cold single-query runs: 20 CSRL
   queries over the ad hoc model sharing one (phi, psi) pair, so the
   batch computes one Theorem 1 reduction and a handful of solves where
   the cold loop computes twenty.  Appends a "batch" section (timings,
   speedup, per-cache hit-rates, and the bit-identity verdict) to
   BENCH_perf.json. *)
let batch_queries =
  let p3 bound = Printf.sprintf
      "P>=%s ( (call_idle | doze) U[t<=24][r<=600] call_initiated )" bound
  in
  List.map p3
    [ "0.05"; "0.10"; "0.15"; "0.20"; "0.25"; "0.30"; "0.35"; "0.40";
      "0.45"; "0.50"; "0.55"; "0.60"; "0.65"; "0.70" ]
  @ [ "P=? ( (call_idle | doze) U[t<=12][r<=600] call_initiated )";
      "P=? ( (call_idle | doze) U[t<=36][r<=600] call_initiated )";
      "P=? ( (call_idle | doze) U[t<=48][r<=600] call_initiated )";
      "P=? ( (call_idle | doze) U[t<=24][r<=300] call_initiated )";
      "P=? ( (call_idle | doze) U[t<=24][r<=450] call_initiated )";
      "P=? ( (call_idle | doze) U[t<=24][r<=550] call_initiated )" ]

let batch _full =
  heading "batch: cross-query caching vs cold single-query runs";
  let queries = List.map Logic.Parser.query batch_queries in
  let n = List.length queries in
  (* The context runs its kernels sequentially on both sides, so the
     comparison isolates the caches (and Batch.run forces the sequential
     per-query path anyway — the bit-identity invariant). *)
  let ctx =
    Checker.make ~epsilon:1e-8 ~pool:Parallel.Pool.sequential
      (Models.Adhoc.mrm ()) (Models.Adhoc.labeling ())
  in
  let cold_verdicts, cold_seconds =
    timed (fun () ->
        List.map
          (fun q ->
            (* A cold run shares nothing, not even Fox-Glynn windows. *)
            Numerics.Fox_glynn.cache_clear ();
            Checker.eval_query ctx q)
          queries)
  in
  Numerics.Fox_glynn.cache_clear ();
  let memo = Checker.create_memo () in
  let batched_verdicts, batch_seconds =
    timed (fun () ->
        Batch.run ~pool:!pool ?telemetry:!session_telemetry ~memo ctx queries)
  in
  let identical = batched_verdicts = cold_verdicts in
  if not identical then begin
    prerr_endline "batch: batched verdicts differ from cold single-query runs";
    exit 1
  end;
  let speedup = cold_seconds /. Float.max 1e-9 batch_seconds in
  Printf.printf
    "  %d queries  cold %s  batched %s (%d jobs)  speedup %.1fx  \
     bit-identical: %b\n"
    n (Io.Table.seconds cold_seconds) (Io.Table.seconds batch_seconds)
    !jobs speedup identical;
  let caches =
    Checker.memo_counters memo
    @ [ ("fox_glynn", Numerics.Fox_glynn.cache_counters ()) ]
  in
  print_caches caches;
  let batch_json =
    Io.Json.Object
      [ ("queries", Io.Json.Number (float_of_int n));
        ("jobs", Io.Json.Number (float_of_int !jobs));
        ("cold_seconds", Io.Json.Number cold_seconds);
        ("batch_seconds", Io.Json.Number batch_seconds);
        ("speedup", Io.Json.Number speedup);
        ("identical", Io.Json.Bool identical);
        ("caches", Batch.caches_json caches) ]
  in
  (* Merge into BENCH_perf.json so `perf batch` produces one document. *)
  let existing =
    match open_in_bin "BENCH_perf.json" with
    | exception Sys_error _ -> []
    | ic ->
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Io.Json.of_string text with
       | Io.Json.Object fields -> List.remove_assoc "batch" fields
       | _ | exception Io.Json.Parse_error _ -> [])
  in
  let doc = Io.Json.Object (existing @ [ ("batch", batch_json) ]) in
  let oc = open_out "BENCH_perf.json" in
  output_string oc (Io.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "updated BENCH_perf.json with the batch section\n"

(* The quotient-and-prune reduction pipeline on a symmetric workload:
   Meyer's multiprocessor with every one of 9 processors tracked
   individually (2^9 = 512 states) whose exact lumping quotient is the
   10-state counting chain.  Times the occupation-time engine with the
   pipeline on vs off on the same Problem (answers must agree within
   1e-12), then checks the pipeline is a bit-identical no-op on the
   asymmetric ad hoc model.  Appends a "reduce" section to
   BENCH_perf.json. *)
let reduce _full =
  heading "reduce: quotient-and-prune reduction pipeline";
  let c =
    { Models.Multiprocessor.n_processors = 9; failure_rate = 0.2;
      repair_rate = 1.0; capacity = 8; throughput_per_processor = 1.0 }
  in
  let p = Models.Multiprocessor.tracked_performability c ~t:10.0 ~r:50.0 in
  let states = Markov.Mrm.n_states p.Perf.Problem.mrm in
  let spec = Perf.Engine.Occupation_time { epsilon = 1e-8 } in
  let tel = Telemetry.create ~clock:monotonic_seconds () in
  let reduced_value, reduced_seconds =
    timed (fun () ->
        Perf.Engine.solve ~pool:!pool ~telemetry:tel
          ~reduction:Perf.Reduction.default spec p)
  in
  Option.iter
    (fun session -> Telemetry.absorb session (Telemetry.report tel))
    !session_telemetry;
  let counter name = Option.value ~default:0 (Telemetry.counter tel name) in
  let quotient_states = counter "reduction.states_after" in
  if counter "reduction.states_before" <> states || quotient_states >= states
  then begin
    prerr_endline "reduce: pipeline did not fire on the symmetric model";
    exit 1
  end;
  let plain_value, plain_seconds =
    timed (fun () -> Perf.Engine.solve ~pool:!pool spec p)
  in
  let abs_error = Float.abs (reduced_value -. plain_value) in
  if abs_error > 1e-12 then begin
    Printf.eprintf "reduce: answers differ by %g (> 1e-12)\n" abs_error;
    exit 1
  end;
  let speedup = plain_seconds /. Float.max 1e-9 reduced_seconds in
  Printf.printf
    "  tracked multiprocessor: %d states -> %d blocks (ratio %.1fx)\n" states
    quotient_states
    (float_of_int states /. float_of_int quotient_states);
  Printf.printf
    "  occupation-time  without reduction %s  with %s (%d jobs)  speedup \
     %.1fx  |diff| %.2e\n"
    (Io.Table.seconds plain_seconds) (Io.Table.seconds reduced_seconds)
    !jobs speedup abs_error;
  (* The asymmetric control: on the ad hoc Q3 problem every pipeline
     stage declines to fire, so the answer must be bit-identical. *)
  let q3 = q3_problem ~r:600.0 in
  let tel_q3 = Telemetry.create ~clock:monotonic_seconds () in
  let v_reduced =
    Perf.Engine.solve ~pool:!pool ~telemetry:tel_q3
      ~reduction:Perf.Reduction.default spec q3
  in
  let v_plain = Perf.Engine.solve ~pool:!pool spec q3 in
  let c3 name = Option.value ~default:0 (Telemetry.counter tel_q3 name) in
  let no_op =
    c3 "reduction.states_before" = c3 "reduction.states_after"
    && c3 "reduction.pruned_states" = 0
    && c3 "reduction.lumped" = 0
    && c3 "reduction.init_pruned_states" = 0
  in
  let identical =
    no_op
    && Int64.equal (Int64.bits_of_float v_reduced) (Int64.bits_of_float v_plain)
  in
  if not identical then begin
    prerr_endline "reduce: pipeline is not a no-op on the asymmetric model";
    exit 1
  end;
  Printf.printf
    "  asymmetric control (ad hoc Q3): no-op, bit-identical: %b\n" identical;
  let reduce_json =
    Io.Json.Object
      [ ("procedure", Io.Json.String "occupation-time");
        ("states", Io.Json.Number (float_of_int states));
        ("quotient_states", Io.Json.Number (float_of_int quotient_states));
        ("reduction_ratio",
         Io.Json.Number (float_of_int states /. float_of_int quotient_states));
        ("jobs", Io.Json.Number (float_of_int !jobs));
        ("without_reduction_seconds", Io.Json.Number plain_seconds);
        ("with_reduction_seconds", Io.Json.Number reduced_seconds);
        ("speedup", Io.Json.Number speedup);
        ("abs_error", Io.Json.Number abs_error);
        ("identical_on_asymmetric", Io.Json.Bool identical) ]
  in
  let existing =
    match open_in_bin "BENCH_perf.json" with
    | exception Sys_error _ -> []
    | ic ->
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Io.Json.of_string text with
       | Io.Json.Object fields -> List.remove_assoc "reduce" fields
       | _ | exception Io.Json.Parse_error _ -> [])
  in
  let doc = Io.Json.Object (existing @ [ ("reduce", reduce_json) ]) in
  let oc = open_out "BENCH_perf.json" in
  output_string oc (Io.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "updated BENCH_perf.json with the reduce section\n"

(* A 50-point two-cost frontier swept over one warm context vs 50 cold
   independent solves — one scalar reward-quantile bisection per grid
   time, with every cold probe paying the full pipeline (no memo, fresh
   Fox-Glynn windows per row), which is what repeated csrl-check
   invocations would cost.  The workload is the tracked multiprocessor
   (2^12 = 4096 states, 13-block quotient) under the pseudo-Erlang
   engine: the reduction pipeline on the full model dominates each cold
   probe, while the warm sweep prepares the pipeline once — every later
   probe is a quotient-only solve — and prunes probes with the
   monotonicity brackets.  Every emitted point must be bit-identical to
   an independent cold solve of its exact (t, r) bounds, and the sweep
   must clear a 5x floor (re-asserted by validate_bench_json).  Appends
   a "frontier" section to BENCH_perf.json. *)
let frontier _full =
  heading "frontier: warm two-cost sweep vs cold independent solves";
  let c =
    { Models.Multiprocessor.n_processors = 12; failure_rate = 1.0;
      repair_rate = 0.5; capacity = 8; throughput_per_processor = 1.0 }
  in
  let mrm = Models.Multiprocessor.tracked_mrm c in
  let labeling = Models.Multiprocessor.tracked_labeling c in
  let states = Markov.Mrm.n_states mrm in
  let init =
    Linalg.Vec.init states (fun s ->
        if s = Models.Multiprocessor.tracked_initial_state c then 1.0 else 0.0)
  in
  let grid = 50 in
  let target = 0.5 and time_bound = 8.0 and reward_bound = 40.0 in
  let tolerance = 1e-2 in
  let query_text =
    Printf.sprintf "frontier[%d] P>=%g ( true U[t<=%g][r<=%g] down )" grid
      target time_bound reward_bound
  in
  let query = Logic.Parser.query query_text in
  let engine = Perf.Engine.Pseudo_erlang { phases = 16 } in
  let ctx () =
    Checker.make ~engine ~epsilon:1e-6 ~pool:Parallel.Pool.sequential mrm
      labeling
  in
  let point_eval ctx memo ~t ~r =
    let probe =
      Logic.Ast.Prob_query
        (Logic.Ast.Until
           (Numerics.Time_interval.upto t, Numerics.Time_interval.upto r,
            Logic.Ast.True, Logic.Ast.Ap "down"))
    in
    match Checker.eval_query ?memo ctx probe with
    | Checker.Numeric values -> Linalg.Vec.dot init values
    | _ -> assert false
  in
  (* Cold: one independent reward-quantile bisection per grid time over
     the full (0, reward_bound] bracket, nothing shared between rows. *)
  let cold_evaluations = ref 0 in
  let cold_rows, cold_seconds =
    timed (fun () ->
        List.init grid (fun i ->
            Numerics.Fox_glynn.cache_clear ();
            let cold_ctx = ctx () in
            let t =
              time_bound *. float_of_int (i + 1) /. float_of_int grid
            in
            let outcome =
              Perf.Frontier.probe
                ~eval:(fun r -> point_eval cold_ctx None ~t ~r)
                ~target ~hi:reward_bound ~tolerance
            in
            cold_evaluations :=
              !cold_evaluations + outcome.Perf.Frontier.evaluations;
            (t, outcome)))
  in
  Numerics.Fox_glynn.cache_clear ();
  let memo = Checker.create_memo () in
  let warm_ctx = ctx () in
  let result, sweep_seconds =
    timed (fun () ->
        Batch.Frontier.run ?telemetry:!session_telemetry ~memo warm_ctx ~init
          ~tolerance query)
  in
  let points = result.Batch.Frontier.points in
  let n_points = List.length points in
  (* Sanity: the sweep and the 50 independent searches agree on which
     rows are feasible, and on every resolved reward within tolerance
     (brackets differ, so the resolved rewards may differ by up to the
     tolerance — the certified error budget). *)
  let feasible_rows =
    List.length
      (List.filter
         (fun (_, o) -> o.Perf.Frontier.value <> None)
         cold_rows)
  in
  List.iter
    (fun (p : Batch.Frontier.point) ->
      let _, o =
        List.find
          (fun (t, _) -> Float.equal t p.Batch.Frontier.t)
          cold_rows
      in
      match o.Perf.Frontier.value with
      | Some r_cold
        when Float.abs (r_cold -. p.Batch.Frontier.r) <= tolerance -> ()
      | _ ->
        Printf.eprintf
          "frontier: sweep row t=%.17g resolved r=%.17g disagrees with the \
           independent search\n"
          p.Batch.Frontier.t p.Batch.Frontier.r;
        exit 1)
    points;
  (* The bit-identity check: each emitted point re-solved from scratch
     (fresh context, no memo, cleared Fox-Glynn windows) at its exact
     (t, r) must reproduce the exact probability. *)
  let cold_identical = ref true in
  List.iter
    (fun (p : Batch.Frontier.point) ->
      Numerics.Fox_glynn.cache_clear ();
      let cold =
        point_eval (ctx ()) None ~t:p.Batch.Frontier.t ~r:p.Batch.Frontier.r
      in
      if
        not
          (Int64.equal
             (Int64.bits_of_float p.Batch.Frontier.probability)
             (Int64.bits_of_float cold))
      then begin
        Printf.eprintf
          "frontier: point (t=%.17g, r=%.17g) warm %.17g != cold %.17g\n"
          p.Batch.Frontier.t p.Batch.Frontier.r p.Batch.Frontier.probability
          cold;
        cold_identical := false
      end)
    points;
  if not !cold_identical then begin
    prerr_endline "frontier: sweep points differ from cold solves";
    exit 1
  end;
  let speedup = cold_seconds /. Float.max 1e-9 sweep_seconds in
  Printf.printf
    "  tracked multiprocessor (%d states, %s): %d-point frontier (%d \
     feasible rows, %d staircase points)\n  cold %s (%d evaluations, %d \
     independent solves)  sweep %s (%d evaluations)  speedup %.1fx  \
     bit-identical: %b\n"
    states (Format.asprintf "%a" Perf.Engine.pp_spec engine) grid
    feasible_rows n_points
    (Io.Table.seconds cold_seconds) !cold_evaluations grid
    (Io.Table.seconds sweep_seconds) result.Batch.Frontier.evaluations
    speedup !cold_identical;
  let caches =
    Checker.memo_counters memo
    @ [ ("fox_glynn", Numerics.Fox_glynn.cache_counters ()) ]
  in
  print_caches caches;
  let frontier_json =
    Io.Json.Object
      [ ("states", Io.Json.Number (float_of_int states));
        ("engine",
         Io.Json.String (Format.asprintf "%a" Perf.Engine.pp_spec engine));
        ("grid", Io.Json.Number (float_of_int grid));
        ("points", Io.Json.Number (float_of_int n_points));
        ("feasible_rows", Io.Json.Number (float_of_int feasible_rows));
        ("evaluations",
         Io.Json.Number (float_of_int result.Batch.Frontier.evaluations));
        ("cold_evaluations", Io.Json.Number (float_of_int !cold_evaluations));
        ("target", Io.Json.Number result.Batch.Frontier.target);
        ("time_bound", Io.Json.Number result.Batch.Frontier.time_bound);
        ("reward_bound", Io.Json.Number result.Batch.Frontier.reward_bound);
        ("tolerance", Io.Json.Number result.Batch.Frontier.tolerance);
        ("jobs", Io.Json.Number (float_of_int !jobs));
        ("cold_seconds", Io.Json.Number cold_seconds);
        ("sweep_seconds", Io.Json.Number sweep_seconds);
        ("speedup", Io.Json.Number speedup);
        ("identical", Io.Json.Bool !cold_identical);
        ("caches", Batch.caches_json caches) ]
  in
  let existing =
    match open_in_bin "BENCH_perf.json" with
    | exception Sys_error _ -> []
    | ic ->
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Io.Json.of_string text with
       | Io.Json.Object fields -> List.remove_assoc "frontier" fields
       | _ | exception Io.Json.Parse_error _ -> [])
  in
  let doc = Io.Json.Object (existing @ [ ("frontier", frontier_json) ]) in
  let oc = open_out "BENCH_perf.json" in
  output_string oc (Io.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "updated BENCH_perf.json with the frontier section\n"

(* The serving daemon's warm caches vs cold per-request services: the
   20-query workload of `batch` sent as check requests.  Cold models
   the per-query cost of shelling out to a fresh checker: every request
   gets a fresh service (fresh registry and memo, cleared Fox-Glynn
   windows).  Warm is the persistent daemon: one service answers the
   workload twice and round 2 — where every query is a memo hit — is
   timed.  Responses must be string-identical across all rounds (the
   serving layer's bit-identity claim), and the warm round must clear a
   2x floor (asserted again by validate_bench_json; in practice the
   measured speedup is orders of magnitude).  Appends a "serve" section
   to BENCH_perf.json. *)
let serve _full =
  heading "serve: warm persistent service vs cold per-request services";
  let config =
    { (Server.Service.default_config ~clock:monotonic_seconds ()) with
      Server.Service.pool = !pool }
  in
  let fresh () =
    let service = Server.Service.create config in
    (match Server.Service.preload service [ "adhoc" ] with
     | Ok () -> ()
     | Error message ->
       prerr_endline ("serve: " ^ message);
       exit 1);
    service
  in
  let envelope q =
    { Server.Protocol.id = None;
      request =
        Server.Protocol.Check { model = "adhoc"; query = q; deadline_ms = None }
    }
  in
  let run service q =
    Io.Json.to_string (Server.Service.execute service (envelope q))
  in
  let n = List.length batch_queries in
  let cold_responses, cold_seconds =
    timed (fun () ->
        List.map
          (fun q ->
            Numerics.Fox_glynn.cache_clear ();
            run (fresh ()) q)
          batch_queries)
  in
  Numerics.Fox_glynn.cache_clear ();
  let service = fresh () in
  let round1 = List.map (run service) batch_queries in
  let warm_responses, warm_seconds =
    timed (fun () -> List.map (run service) batch_queries)
  in
  let identical = round1 = cold_responses && warm_responses = cold_responses in
  if not identical then begin
    prerr_endline "serve: warm responses differ from cold single-shot responses";
    exit 1
  end;
  let speedup = cold_seconds /. Float.max 1e-9 warm_seconds in
  Printf.printf
    "  %d queries  cold %s  warm round 2 %s (%d jobs)  speedup %.1fx  \
     identical: %b\n"
    n (Io.Table.seconds cold_seconds) (Io.Table.seconds warm_seconds) !jobs
    speedup identical;
  let stats =
    Server.Service.execute service
      { Server.Protocol.id = None; request = Server.Protocol.Stats }
  in
  let caches =
    match Io.Json.member "models" stats with
    | Some (Io.Json.List [ model ]) -> begin
        match Io.Json.member "cache" model with
        | Some (Io.Json.Object caches) -> caches
        | _ -> prerr_endline "serve: stats carry no cache object"; exit 1
      end
    | _ -> prerr_endline "serve: stats carry no model entry"; exit 1
  in
  List.iter
    (fun (name, cache) ->
      let num key =
        match Option.bind (Io.Json.member key cache) Io.Json.to_float with
        | Some v -> v
        | None -> 0.0
      in
      Printf.printf "  cache %-10s %3.0f lookups, %3.0f hits (%.0f%%)\n" name
        (num "lookups") (num "hits")
        (100.0 *. num "hit_rate"))
    caches;
  let serve_json =
    Io.Json.Object
      [ ("queries", Io.Json.Number (float_of_int n));
        ("jobs", Io.Json.Number (float_of_int !jobs));
        ("cold_seconds", Io.Json.Number cold_seconds);
        ("warm_seconds", Io.Json.Number warm_seconds);
        ("speedup", Io.Json.Number speedup);
        ("identical", Io.Json.Bool identical);
        ("caches", Io.Json.Object caches) ]
  in
  let existing =
    match open_in_bin "BENCH_perf.json" with
    | exception Sys_error _ -> []
    | ic ->
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Io.Json.of_string text with
       | Io.Json.Object fields -> List.remove_assoc "serve" fields
       | _ | exception Io.Json.Parse_error _ -> [])
  in
  let doc = Io.Json.Object (existing @ [ ("serve", serve_json) ]) in
  let oc = open_out "BENCH_perf.json" in
  output_string oc (Io.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "updated BENCH_perf.json with the serve section\n"

(* Throughput scaling of the sharded executor pool: one mixed session
   over 8 models (builtin aliases of adhoc/adhoc-srn, names picked so
   the shard hash spreads them evenly over 2 and 4 shards), 64 check
   requests with pairwise-distinct time bounds (no memo hits — every
   request is a real transient solve), replayed through serve_channels
   at --executors 1, 2 and 4 on fresh services.  Responses must be
   byte-identical across counts (the determinism claim); queries/sec
   per count and the 2-executor speedup go into the "serve_scale"
   section of BENCH_perf.json together with the machine's core count —
   validate_bench_json enforces the 1.6x floor only on multi-core
   hosts, single-core runs just pin identity. *)
let serve_scale _full =
  heading "serve-scale: queries/sec vs executor count, mixed 8-model session";
  let cores = Domain.recommended_domain_count () in
  (* Greedily pick 8 alias names whose shard hashes fill each mod-4
     bucket twice — then mod 2 splits 4/4 as well, so both measured
     executor counts get a balanced workload. *)
  let aliases =
    let buckets = Array.make 4 0 in
    let rec pick acc i =
      if List.length acc = 8 then List.rev acc
      else begin
        let name = Printf.sprintf "m%02d" i in
        let b = Server.Service.shard_of_name ~executors:4 name in
        if buckets.(b) < 2 then begin
          buckets.(b) <- buckets.(b) + 1;
          pick (name :: acc) (i + 1)
        end
        else pick acc (i + 1)
      end
    in
    pick [] 0
  in
  let sources =
    List.mapi
      (fun i name -> (name, if i mod 2 = 0 then "adhoc" else "adhoc-srn"))
      aliases
  in
  let n_requests = 64 in
  let models = Array.of_list aliases in
  let request i =
    let model = models.(i mod Array.length models) in
    (* Distinct bounds per request: no memo or Fox-Glynn window hits,
       so every request is a real solve and big enough (~ms) that the
       executor fan-out beats the dispatch overhead on multi-core. *)
    let bound = 50.0 +. (2.0 *. float_of_int i) in
    Printf.sprintf
      {|{"kind": "check", "id": "r%02d", "model": "%s", "query": "P=? ( F[t<=%g] doze )"}|}
      i model bound
  in
  let session executors =
    Numerics.Fox_glynn.cache_clear ();
    let config =
      { (Server.Service.default_config ~clock:monotonic_seconds ()) with
        Server.Service.pool = !pool;
        queue_bound = 256;
        executors }
    in
    let service = Server.Service.create config in
    let reg = Server.Service.registry service in
    List.iter
      (fun (name, builtin) ->
        match Server.Registry.load reg ~name ~builtin () with
        | Ok _ -> ()
        | Error _ ->
          prerr_endline ("serve-scale: cannot load " ^ builtin);
          exit 1)
      sources;
    let req_read, req_write = Unix.pipe ~cloexec:false () in
    let resp_read, resp_write = Unix.pipe ~cloexec:false () in
    let input = Unix.in_channel_of_descr req_read in
    let output = Unix.out_channel_of_descr resp_write in
    let server =
      Thread.create
        (fun () ->
          ignore (Server.Service.serve_channels service ~input ~output);
          close_out_noerr output;
          close_in_noerr input)
        ()
    in
    let feed = Unix.out_channel_of_descr req_write in
    let responses = ref [] in
    let _, seconds =
      timed (fun () ->
          for i = 0 to n_requests - 1 do
            output_string feed (request i);
            output_char feed '\n'
          done;
          close_out feed;
          let drain = Unix.in_channel_of_descr resp_read in
          (try
             while true do
               responses := input_line drain :: !responses
             done
           with End_of_file -> ());
          close_in_noerr drain)
    in
    Thread.join server;
    Server.Service.stop service;
    (List.rev !responses, seconds)
  in
  let counts = [ 1; 2; 4 ] in
  let runs = List.map (fun e -> (e, session e)) counts in
  let reference =
    match runs with (_, (r, _)) :: _ -> r | [] -> assert false
  in
  let identical =
    List.for_all
      (fun (_, (responses, _)) ->
        List.length responses = n_requests && responses = reference)
      runs
  in
  if not identical then begin
    prerr_endline
      "serve-scale: responses differ across executor counts (or were dropped)";
    exit 1
  end;
  let qps_of seconds = float_of_int n_requests /. Float.max 1e-9 seconds in
  List.iter
    (fun (e, (_, seconds)) ->
      Printf.printf "  executors %d  %s  %.1f q/s\n" e
        (Io.Table.seconds seconds) (qps_of seconds))
    runs;
  let seconds_at e =
    match List.assoc_opt e runs with
    | Some (_, seconds) -> seconds
    | None -> assert false
  in
  let speedup2 = qps_of (seconds_at 2) /. qps_of (seconds_at 1) in
  Printf.printf "  speedup at 2 executors %.2fx (%d cores)  identical: %b\n"
    speedup2 cores identical;
  let serve_scale_json =
    Io.Json.Object
      [ ("models", Io.Json.Number (float_of_int (List.length aliases)));
        ("requests", Io.Json.Number (float_of_int n_requests));
        ("cores", Io.Json.Number (float_of_int cores));
        ("counts",
         Io.Json.List
           (List.map
              (fun (e, (_, seconds)) ->
                Io.Json.Object
                  [ ("executors", Io.Json.Number (float_of_int e));
                    ("seconds", Io.Json.Number seconds);
                    ("qps", Io.Json.Number (qps_of seconds)) ])
              runs));
        ("speedup2", Io.Json.Number speedup2);
        ("identical", Io.Json.Bool identical) ]
  in
  let existing =
    match open_in_bin "BENCH_perf.json" with
    | exception Sys_error _ -> []
    | ic ->
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Io.Json.of_string text with
       | Io.Json.Object fields -> List.remove_assoc "serve_scale" fields
       | _ | exception Io.Json.Parse_error _ -> [])
  in
  let doc = Io.Json.Object (existing @ [ ("serve_scale", serve_scale_json) ]) in
  let oc = open_out "BENCH_perf.json" in
  output_string oc (Io.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "updated BENCH_perf.json with the serve_scale section\n"

(* On-the-fly state exploration (`bench explore`): the sliding-window
   truncated-uniformisation engine on the .gcm grid family
   (Models.Gcm_examples) against full-matrix uniformisation.  Three
   claims go into the "explore" section of BENCH_perf.json:

   - on a ~50k-state instance where both engines run, the windowed
     solve (including state discovery from scratch) beats the explicit
     uniformisation solve on the pre-materialised matrix by >= 5x, and
     the answers agree within the certified bound;
   - a >= 10^6-state instance is checked end to end within epsilon in
     seconds, touching only the window (peak_window << states);
   - on an instance the window never truncates, the truncating run is
     bit-identical to the truncate:false run.

   The explicit side is deliberately flattered: its state space is
   materialised before the clock starts, while the windowed side
   re-discovers its states inside the timed region. *)
let explore full =
  heading
    "explore: sliding-window .gcm exploration vs full-matrix uniformisation";
  let epsilon = 1e-9 in
  let t = 24.0 in
  let runs = if full then 7 else 5 in
  let compile src =
    match Lang.Gcm.of_string src with
    | Ok succ -> succ
    | Error message -> failwith message
  in
  (* (median, spread, best): both solves are a few milliseconds here, so
     scheduler noise easily doubles individual samples — the gated
     speedup is computed from each side's best sample (noise only ever
     inflates wall-clock), while the median and spread are reported so
     a noisy host is still visible in the artifact. *)
  let median_timed f =
    let (), _warmup = timed f in
    let samples = Array.init runs (fun _ -> snd (timed f)) in
    Array.sort compare samples;
    (samples.(runs / 2), samples.(runs - 1) -. samples.(0), samples.(0))
  in
  (* The mid instance: smallest grid with >= 50k states, the goal front
     pulled to x + y >= 20 so the fixed-horizon query has non-trivial
     mass while the window stays near the origin. *)
  let n_mid = Models.Gcm_examples.grid_n_for_states 50_000 in
  let mid_states = Models.Gcm_examples.grid_states n_mid in
  let succ_mid =
    compile (Models.Gcm_examples.grid ~frontier_at:20 ~n:n_mid ())
  in
  let query = Logic.Parser.query "P=? ( true U[t<=24] frontier )" in
  let answer = ref None in
  let windowed_seconds, windowed_spread, windowed_best =
    (* A fresh handle per run: discovery and interning are part of the
       measured windowed solve. *)
    median_timed (fun () ->
        let sym = Perf.Symbolic.create succ_mid in
        match Perf.Symbolic.eval ~epsilon sym query with
        | Perf.Symbolic.Numeric a -> answer := Some a
        | Perf.Symbolic.Boolean _ -> assert false)
  in
  let a = match !answer with Some a -> a | None -> assert false in
  let w = match a.Perf.Symbolic.stats with Some s -> s | None -> assert false in
  (* The explicit comparator: materialise the full space (untimed),
     make the goal absorbing, then time plain uniformised transient
     reachability on the full matrix at the same epsilon. *)
  let mrm, labeling, init_id =
    let space = Explore.Space.create succ_mid in
    match Explore.Materialise.materialise ~limit:2_000_000 space with
    | Ok twin -> twin
    | Error n -> failwith (Printf.sprintf "materialise hit the %d-state cap" n)
  in
  let chain = Markov.Mrm.ctmc mrm in
  let n_states = Markov.Ctmc.n_states chain in
  let goal = Markov.Labeling.sat labeling "frontier" in
  let absorbed =
    let triples = ref [] in
    for s = 0 to n_states - 1 do
      if not goal.(s) then
        Linalg.Csr.iter_row (Markov.Ctmc.rates chain) s (fun j rate ->
            if rate > 0.0 then triples := (s, j, rate) :: !triples)
    done;
    Markov.Ctmc.of_transitions ~n:n_states !triples
  in
  let init = Linalg.Vec.unit n_states init_id in
  let reference = ref 0.0 in
  let explicit_seconds, explicit_spread, explicit_best =
    median_timed (fun () ->
        reference :=
          Markov.Transient.reachability ~epsilon ~pool:!pool absorbed ~init
            ~goal ~t)
  in
  let agreement = Float.abs (a.Perf.Symbolic.value -. !reference) in
  let speedup = explicit_best /. windowed_best in
  Printf.printf
    "  %d states, t = %g: windowed %s (+/- %s), explicit %s (+/- %s) -> \
     %.1fx\n"
    mid_states t
    (Io.Table.seconds windowed_seconds)
    (Io.Table.seconds windowed_spread)
    (Io.Table.seconds explicit_seconds)
    (Io.Table.seconds explicit_spread)
    speedup;
  Printf.printf
    "  windowed %.12g +/- %.3g vs explicit %.12g (|diff| %.3g), peak window \
     %d of %d states\n"
    a.Perf.Symbolic.value a.Perf.Symbolic.delta !reference agreement
    w.Explore.Windowed.peak_window mid_states;
  (* Bit-identity on an instance the drop budget never bites: every
     state of the 3x3 grid keeps mass far above the per-step threshold
     at this horizon, so the truncating run must drop nothing and match
     the untruncated run float for float. *)
  let bit_identical, small_dropped =
    let succ_small = compile (Models.Gcm_examples.grid ~n:2 ()) in
    let solve ~truncate =
      let space = Explore.Space.create succ_small in
      let classify s =
        if succ_small.Explore.Succ.holds s "corner" then
          Explore.Windowed.Absorb { goal = true }
        else Explore.Windowed.Transient { counts = false }
      in
      match
        Explore.Windowed.solve ~truncate ~epsilon:1e-6 ~classify
          ~init:[ (succ_small.Explore.Succ.initial, 1.0) ]
          ~t:1.0 ~reward_bound:None space
      with
      | Explore.Windowed.Bounded r -> r
      | Explore.Windowed.Reward_bound_active _ -> assert false
    in
    let truncating = solve ~truncate:true in
    let unbounded = solve ~truncate:false in
    let dropped =
      truncating.Explore.Windowed.stats.Explore.Windowed.mass_dropped
    in
    ( dropped = 0.0
      && Float.equal truncating.Explore.Windowed.value
           unbounded.Explore.Windowed.value,
      dropped )
  in
  Printf.printf "  bit-identity when untruncated: %s (mass dropped %g)\n"
    (if bit_identical then "ok" else "FAILED")
    small_dropped;
  (* The scaling instance: >= 10^6 reachable states, same query shape;
     only the window is ever touched, so the solve stays in seconds. *)
  let n_big = Models.Gcm_examples.grid_n_for_states 1_000_000 in
  let big_states = Models.Gcm_examples.grid_states n_big in
  let succ_big =
    compile (Models.Gcm_examples.grid ~frontier_at:40 ~n:n_big ())
  in
  let big_answer = ref None in
  let big_seconds, big_spread, _big_best =
    median_timed (fun () ->
        let sym = Perf.Symbolic.create succ_big in
        match Perf.Symbolic.eval ~epsilon sym query with
        | Perf.Symbolic.Numeric a -> big_answer := Some a
        | Perf.Symbolic.Boolean _ -> assert false)
  in
  let b = match !big_answer with Some b -> b | None -> assert false in
  let bw = match b.Perf.Symbolic.stats with Some s -> s | None -> assert false in
  Printf.printf
    "  %d states: %s (+/- %s), %.12g +/- %.3g, peak window %d, expanded %d\n"
    big_states
    (Io.Table.seconds big_seconds)
    (Io.Table.seconds big_spread)
    b.Perf.Symbolic.value b.Perf.Symbolic.delta bw.Explore.Windowed.peak_window
    bw.Explore.Windowed.states_expanded;
  let window_json (s : Explore.Windowed.stats) =
    Io.Json.Object
      [ ("peak_window",
         Io.Json.Number (float_of_int s.Explore.Windowed.peak_window));
        ("states_expanded",
         Io.Json.Number (float_of_int s.Explore.Windowed.states_expanded));
        ("mass_dropped", Io.Json.Number s.Explore.Windowed.mass_dropped);
        ("iterations",
         Io.Json.Number (float_of_int s.Explore.Windowed.iterations));
        ("restarts", Io.Json.Number (float_of_int s.Explore.Windowed.restarts));
        ("rate", Io.Json.Number s.Explore.Windowed.rate) ]
  in
  let explore_json =
    Io.Json.Object
      [ ("states", Io.Json.Number (float_of_int mid_states));
        ("n", Io.Json.Number (float_of_int n_mid));
        ("time_bound", Io.Json.Number t);
        ("epsilon", Io.Json.Number epsilon);
        ("runs", Io.Json.Number (float_of_int runs));
        ("windowed_seconds", Io.Json.Number windowed_seconds);
        ("windowed_spread_seconds", Io.Json.Number windowed_spread);
        ("windowed_best_seconds", Io.Json.Number windowed_best);
        ("explicit_seconds", Io.Json.Number explicit_seconds);
        ("explicit_spread_seconds", Io.Json.Number explicit_spread);
        ("explicit_best_seconds", Io.Json.Number explicit_best);
        ("speedup", Io.Json.Number speedup);
        ("value", Io.Json.Number a.Perf.Symbolic.value);
        ("reference", Io.Json.Number !reference);
        ("agreement", Io.Json.Number agreement);
        ("delta", Io.Json.Number a.Perf.Symbolic.delta);
        ("window", window_json w);
        ("bit_identical", Io.Json.Bool bit_identical);
        ("big",
         Io.Json.Object
           [ ("states", Io.Json.Number (float_of_int big_states));
             ("n", Io.Json.Number (float_of_int n_big));
             ("seconds", Io.Json.Number big_seconds);
             ("spread_seconds", Io.Json.Number big_spread);
             ("value", Io.Json.Number b.Perf.Symbolic.value);
             ("delta", Io.Json.Number b.Perf.Symbolic.delta);
             ("window", window_json bw) ]) ]
  in
  (* Merge into BENCH_perf.json so one document carries every section. *)
  let existing =
    match open_in_bin "BENCH_perf.json" with
    | exception Sys_error _ -> []
    | ic ->
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      (match Io.Json.of_string text with
       | Io.Json.Object fields -> List.remove_assoc "explore" fields
       | _ -> [])
  in
  let doc = Io.Json.Object (existing @ [ ("explore", explore_json) ]) in
  let oc = open_out "BENCH_perf.json" in
  output_string oc (Io.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "updated BENCH_perf.json with the explore section\n"

(* Robust checking (`bench robust`): interval-valued MRMs end to end on
   the ad hoc model's Q3 query.  Three deterministic claims go into the
   "robust" section of BENCH_perf.json (re-asserted by
   validate_bench_json --require-robust):

   - containment: precise answers of concrete models sampled from the
     ±10% rate set lie inside the envelope at every state;
   - zero width: the envelope over [Imrm.point] is bit-identical to the
     precise engine;
   - nesting: envelopes widen monotonically along a 0..20% drift sweep.

   The envelope-vs-precise overhead ratio is reported, not gated: two
   robust value-iteration sweeps against one precise occupation-time
   solve is a cost model, not a speedup claim. *)
let robust full =
  heading "robust: interval envelopes over drifted rate sets";
  let epsilon = 1e-9 in
  let runs = if full then 7 else 5 in
  let samples = if full then 50 else 20 in
  let mrm = Models.Adhoc.mrm () and labeling = Models.Adhoc.labeling () in
  let query_text =
    "P=? ( (call_idle | doze) U[t<=24][r<=600] call_initiated )"
  in
  let query = Logic.Parser.query query_text in
  let init = Models.Adhoc.initial_state in
  let n = Markov.Ctmc.n_states (Markov.Mrm.ctmc mrm) in
  let median_timed f =
    let (), _warmup = timed f in
    let s = Array.init runs (fun _ -> snd (timed f)) in
    Array.sort compare s;
    (s.(runs / 2), s.(runs - 1) -. s.(0), s.(0))
  in
  let envelope_of drift =
    let imrm =
      if drift = 0.0 then Robust.Imrm.point mrm
      else Robust.Imrm.of_mrm ~rate_drift:drift mrm
    in
    let ctx = Checker.make_robust ~epsilon ~pool:!pool imrm labeling in
    match Checker.eval_query ctx query with
    | Checker.Interval env -> env
    | _ -> assert false
  in
  (* The drift sweep: per-drift envelopes at the initial state, and the
     nesting claim checked at every state of every consecutive pair. *)
  let drifts = [ 0.0; 0.02; 0.05; 0.1; 0.2 ] in
  let envelopes = List.map (fun d -> (d, envelope_of d)) drifts in
  let nested =
    let rec ok = function
      | (_, inner) :: ((_, outer) :: _ as rest) ->
        let holds = ref true in
        for s = 0 to n - 1 do
          if
            inner.Robust.Envelope.lo.{s} < outer.Robust.Envelope.lo.{s}
            || inner.Robust.Envelope.hi.{s} > outer.Robust.Envelope.hi.{s}
          then holds := false
        done;
        !holds && ok rest
      | _ -> true
    in
    ok envelopes
  in
  List.iter
    (fun (d, env) ->
      Printf.printf "  drift %4.0f%%: initial state in [%.10f, %.10f]  \
                     (width %.3g)\n"
        (100.0 *. d) env.Robust.Envelope.lo.{init} env.Robust.Envelope.hi.{init}
        (env.Robust.Envelope.hi.{init} -. env.Robust.Envelope.lo.{init}))
    envelopes;
  Printf.printf "  nesting along the sweep: %s\n"
    (if nested then "ok" else "FAILED");
  (* Containment: precise solves of sampled concrete models against the
     10% envelope, every state. *)
  let env10 = List.assoc 0.1 envelopes in
  let imrm10 = Robust.Imrm.of_mrm ~rate_drift:0.1 mrm in
  let rng = Random.State.make [| 0x5eed |] in
  let contained = ref true in
  for _ = 1 to samples do
    let concrete = Robust.Imrm.sample rng imrm10 in
    let ctx = Checker.make ~epsilon ~pool:!pool concrete labeling in
    match Checker.eval_query ctx query with
    | Checker.Numeric v ->
      for s = 0 to n - 1 do
        if
          not
            (env10.Robust.Envelope.lo.{s} <= v.{s}
             && v.{s} <= env10.Robust.Envelope.hi.{s})
        then contained := false
      done
    | _ -> assert false
  done;
  Printf.printf "  containment of %d sampled models: %s\n" samples
    (if !contained then "ok" else "FAILED");
  (* Zero width: bit-identity against the precise context. *)
  let precise_ctx = Checker.make ~epsilon ~pool:!pool mrm labeling in
  let precise =
    match Checker.eval_query precise_ctx query with
    | Checker.Numeric v -> v
    | _ -> assert false
  in
  let env0 = List.assoc 0.0 envelopes in
  let zero_width_identical = ref true in
  for s = 0 to n - 1 do
    if
      Int64.bits_of_float env0.Robust.Envelope.lo.{s}
      <> Int64.bits_of_float precise.{s}
      || Int64.bits_of_float env0.Robust.Envelope.hi.{s}
         <> Int64.bits_of_float precise.{s}
    then zero_width_identical := false
  done;
  Printf.printf "  zero-width bit-identity: %s\n"
    (if !zero_width_identical then "ok" else "FAILED");
  let envelope_seconds, envelope_spread, _ =
    median_timed (fun () -> ignore (envelope_of 0.1 : Robust.Envelope.result))
  in
  let precise_seconds, precise_spread, _ =
    median_timed (fun () ->
        let ctx = Checker.make ~epsilon ~pool:!pool mrm labeling in
        ignore (Checker.eval_query ctx query : Checker.verdict))
  in
  let overhead =
    if precise_seconds > 0.0 then envelope_seconds /. precise_seconds else 0.0
  in
  Printf.printf
    "  envelope %s (+/- %s) vs precise %s (+/- %s) -> %.1fx overhead\n"
    (Io.Table.seconds envelope_seconds)
    (Io.Table.seconds envelope_spread)
    (Io.Table.seconds precise_seconds)
    (Io.Table.seconds precise_spread)
    overhead;
  let robust_json =
    Io.Json.Object
      [ ("model", Io.Json.String "adhoc");
        ("query", Io.Json.String query_text);
        ("epsilon", Io.Json.Number epsilon);
        ("runs", Io.Json.Number (float_of_int runs));
        ("samples", Io.Json.Number (float_of_int samples));
        ("contained", Io.Json.Bool !contained);
        ("zero_width_bit_identical", Io.Json.Bool !zero_width_identical);
        ("nested", Io.Json.Bool nested);
        ("drifts",
         Io.Json.List
           (List.map
              (fun (d, env) ->
                let lo = env.Robust.Envelope.lo.{init}
                and hi = env.Robust.Envelope.hi.{init} in
                Io.Json.Object
                  [ ("drift", Io.Json.Number d);
                    ("lo", Io.Json.Number lo); ("hi", Io.Json.Number hi);
                    ("width", Io.Json.Number (hi -. lo)) ])
              envelopes));
        ("envelope_seconds", Io.Json.Number envelope_seconds);
        ("envelope_spread_seconds", Io.Json.Number envelope_spread);
        ("precise_seconds", Io.Json.Number precise_seconds);
        ("precise_spread_seconds", Io.Json.Number precise_spread);
        ("overhead", Io.Json.Number overhead) ]
  in
  let existing =
    match open_in_bin "BENCH_perf.json" with
    | exception Sys_error _ -> []
    | ic ->
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      (match Io.Json.of_string text with
       | Io.Json.Object fields -> List.remove_assoc "robust" fields
       | _ -> [])
  in
  let doc = Io.Json.Object (existing @ [ ("robust", robust_json) ]) in
  let oc = open_out "BENCH_perf.json" in
  output_string oc (Io.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "updated BENCH_perf.json with the robust section\n"

(* ------------------------------------------------------------------ *)

let artifacts =
  [ ("table1", table1); ("table2", table2); ("table3", table3);
    ("table4", table4); ("q1q2", q1q2); ("figure1", figure1);
    ("figure2", figure2); ("ablation", ablation); ("micro", micro);
    ("perf", perf); ("batch", batch); ("reduce", reduce);
    ("frontier", frontier); ("serve", serve); ("serve-scale", serve_scale);
    ("explore", explore); ("robust", robust) ]

let run_artifacts args =
  let bad_jobs () = prerr_endline "--jobs needs a positive count"; exit 2 in
  let set_jobs text =
    match int_of_string_opt text with
    | Some j when j >= 1 -> jobs := j
    | _ -> bad_jobs ()
  in
  let rec strip_jobs = function
    | [] -> []
    | "--jobs" :: value :: rest -> set_jobs value; strip_jobs rest
    | [ "--jobs" ] -> bad_jobs ()
    | arg :: rest when String.starts_with ~prefix:"--jobs=" arg ->
      set_jobs (String.sub arg 7 (String.length arg - 7));
      strip_jobs rest
    | "--stats" :: rest -> stats := true; strip_jobs rest
    | "--trace" :: value :: rest -> trace_path := Some value; strip_jobs rest
    | [ "--trace" ] -> prerr_endline "--trace needs a file path"; exit 2
    | arg :: rest when String.starts_with ~prefix:"--trace=" arg ->
      trace_path := Some (String.sub arg 8 (String.length arg - 8));
      strip_jobs rest
    | arg :: rest -> arg :: strip_jobs rest
  in
  let args = strip_jobs args in
  if !trace_path <> None || !stats then
    session_telemetry := Some (Telemetry.create ~clock:monotonic_seconds ());
  let full = List.mem "--full" args in
  let selected =
    List.filter (fun a -> a <> "--full" && a <> "all") args
  in
  let to_run =
    match selected with
    | [] -> artifacts
    | names ->
      List.map
        (fun name ->
          match List.assoc_opt name artifacts with
          | Some f -> (name, f)
          | None ->
            Printf.eprintf "unknown artifact %S; available: %s\n" name
              (String.concat ", " (List.map fst artifacts));
            exit 2)
        names
  in
  Parallel.Pool.with_pool ~jobs:!jobs @@ fun p ->
  pool := p;
  (* Busy-time accounting only for --trace: it adds two clock reads per
     chunk, and --stats output must stay deterministic. *)
  (match !session_telemetry with
   | Some tel when !trace_path <> None ->
     Parallel.Pool.instrument p (Telemetry.clock tel)
   | _ -> ());
  List.iter (fun (_, f) -> f full) to_run;
  match !session_telemetry with
  | None -> ()
  | Some tel ->
    Io.Trace.record_pool_stats tel p;
    (match !trace_path with
     | None -> ()
     | Some path ->
       let document =
         Io.Json.Object
           [ ("tool", Io.Json.String "bench");
             ("jobs", Io.Json.Number (float_of_int !jobs));
             ("telemetry", Io.Trace.to_json tel) ]
       in
       let oc = open_out path in
       output_string oc (Io.Json.to_string document);
       output_char oc '\n';
       close_out oc;
       Printf.printf "wrote %s\n" path);
    if !stats then Io.Trace.print_stats stdout tel

let () =
  (* The perfdb modes run outside the artifact machinery: measurement
     must stay single-threaded and deterministic, and perfdb-exec is
     the bare subprocess cachegrind simulates. *)
  match List.tl (Array.to_list Sys.argv) with
  | "perfdb" :: rest -> Perfdb.main rest
  | "perfdb-exec" :: rest -> Perfdb.exec rest
  | args -> run_artifacts args
