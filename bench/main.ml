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

(* Wall-clock (monotonic) timing: the parallel kernels spread the work
   over several domains, so CPU time (Sys.time) would hide any speedup. *)
let timed f =
  let start = Monotonic_clock.now () in
  let result = f () in
  let stop = Monotonic_clock.now () in
  (result, Int64.to_float (Int64.sub stop start) /. 1e9)

(* Domain pool shared by every artifact; --jobs N selects its size
   (default 1 = the exact sequential code). *)
let jobs = ref 1
let pool = ref Parallel.Pool.sequential

let reference_value ~r =
  Perf.Sericola.solve ~epsilon:1e-10 ~pool:!pool (Perfdb.q3_problem ~r)

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
        let p = Perfdb.q3_problem ~r in
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
        let p = Perfdb.q3_problem ~r in
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
        let p = Perfdb.q3_problem ~r in
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
    Checker.make ~epsilon:1e-10 ~pool:!pool (Models.Adhoc.mrm ())
      (Models.Adhoc.labeling ())
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
  let p = Perfdb.q3_problem ~r:600.0 in
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
  let p = Perfdb.q3_problem ~r:600.0 in
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
  let phi, psi = Perfdb.q3_masks () in
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
    timed (fun () ->
        Perf.Sericola.solve ~epsilon:1e-8 (Perfdb.q3_problem ~r:600.0))
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
  let p600 = Perfdb.q3_problem ~r:600.0 in
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

(* ------------------------------------------------------------------ *)

let artifacts =
  [ ("table1", table1); ("table2", table2); ("table3", table3);
    ("table4", table4); ("q1q2", q1q2); ("figure1", figure1);
    ("figure2", figure2); ("ablation", ablation); ("micro", micro) ]

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
    | arg :: rest -> arg :: strip_jobs rest
  in
  let args = strip_jobs args in
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
  List.iter (fun (_, f) -> f full) to_run

let () =
  (* The perfdb modes run outside the artifact machinery: measurement
     must stay single-threaded and deterministic, and perfdb-exec is
     the bare subprocess cachegrind simulates. *)
  match List.tl (Array.to_list Sys.argv) with
  | "perfdb" :: rest -> Perfdb.main rest
  | "perfdb-exec" :: rest -> Perfdb.exec rest
  | args -> run_artifacts args
