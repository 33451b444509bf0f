(* Tests for the domain pool and the parallel numerical kernels: the
   pool itself (coverage, cutoff, exceptions, nesting), bit-identity of
   the row-partitioned kernels against the sequential code, and
   agreement of the three Section 4 engines across pool sizes. *)

let with_pool = Parallel.Pool.with_pool

(* ---------------- the pool itself ---------------------------------- *)

let test_pool_lifecycle () =
  let p = Parallel.Pool.create 3 in
  Alcotest.(check int) "size" 3 (Parallel.Pool.size p);
  Parallel.Pool.shutdown p;
  Parallel.Pool.shutdown p;
  (* Shut-down pools degrade to sequential execution instead of hanging. *)
  let hits = ref 0 in
  Parallel.Pool.parallel_for ~cutoff:1 p ~lo:0 ~hi:10 (fun lo hi ->
      hits := !hits + (hi - lo));
  Alcotest.(check int) "after shutdown" 10 !hits;
  Alcotest.(check int) "sequential size" 1
    (Parallel.Pool.size Parallel.Pool.sequential);
  Alcotest.check_raises "create 0"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Parallel.Pool.create 0));
  if Parallel.Pool.default_job_count () < 1 then
    Alcotest.fail "default_job_count < 1"

let test_parallel_for_covers () =
  with_pool ~jobs:4 @@ fun p ->
  List.iter
    (fun (lo, hi) ->
      let n = Stdlib.max 0 (hi - lo) in
      let seen = Array.make (Stdlib.max 1 n) 0 in
      Parallel.Pool.parallel_for ~cutoff:1 p ~lo ~hi (fun clo chi ->
          for i = clo to chi - 1 do
            seen.(i - lo) <- seen.(i - lo) + 1
          done);
      Array.iteri
        (fun i c ->
          if i < n && c <> 1 then
            Alcotest.failf "[%d,%d): index %d visited %d times" lo hi (lo + i) c)
        seen)
    [ (0, 1000); (0, 1); (5, 12); (3, 3); (7, 2); (0, 0) ]

let test_cutoff_inlines () =
  with_pool ~jobs:4 @@ fun p ->
  (* Below the cutoff the body must run as one chunk on the caller. *)
  let chunks = ref [] in
  Parallel.Pool.parallel_for ~cutoff:100 p ~lo:0 ~hi:50 (fun lo hi ->
      chunks := (lo, hi) :: !chunks);
  (match !chunks with
   | [ (0, 50) ] -> ()
   | _ -> Alcotest.failf "expected one inline chunk, got %d" (List.length !chunks))

exception Boom

let test_exceptions_propagate () =
  with_pool ~jobs:4 @@ fun p ->
  Alcotest.check_raises "raises" Boom (fun () ->
      Parallel.Pool.parallel_for ~cutoff:1 p ~lo:0 ~hi:64 (fun lo _ ->
          if lo >= 32 then raise Boom));
  (* The pool survives a failed parallel_for. *)
  let total = ref 0 and m = Mutex.create () in
  Parallel.Pool.parallel_for ~cutoff:1 p ~lo:0 ~hi:100 (fun lo hi ->
      let s = ref 0 in
      for i = lo to hi - 1 do s := !s + i done;
      Mutex.lock m;
      total := !total + !s;
      Mutex.unlock m);
  Alcotest.(check int) "usable after exception" 4950 !total

let test_nested_runs_inline () =
  with_pool ~jobs:4 @@ fun p ->
  let seen = Array.make (8 * 8) 0 in
  Parallel.Pool.parallel_for ~cutoff:1 p ~lo:0 ~hi:8 (fun lo hi ->
      for i = lo to hi - 1 do
        (* A nested parallel_for on the same busy pool must degrade to
           inline execution rather than deadlock. *)
        Parallel.Pool.parallel_for ~cutoff:1 p ~lo:0 ~hi:8 (fun jlo jhi ->
            for j = jlo to jhi - 1 do
              seen.((i * 8) + j) <- seen.((i * 8) + j) + 1
            done)
      done);
  Array.iteri
    (fun k c -> if c <> 1 then Alcotest.failf "cell %d visited %d times" k c)
    seen

(* ---------------- parallel kernels vs sequential ------------------- *)

(* Matrices big enough to cross the SpMV cutoff, so the pool really
   partitions them. *)
let gen_big_matrix =
  QCheck2.Gen.(
    let* n = int_range 300 400 in
    let* m = int_range 1 50 in
    let* entries =
      list_size (int_range 0 800)
        (triple (int_range 0 (n - 1)) (int_range 0 (m - 1))
           (float_range (-5.0) 5.0))
    in
    return (n, m, entries))

let prop_mul_vec_bit_identical =
  QCheck2.Test.make ~count:20 ~name:"parallel A x bit-identical" gen_big_matrix
    (fun (n, m, entries) ->
      let a = Linalg.Csr.of_coo ~rows:n ~cols:m entries in
      let x = Array.init m (fun j -> sin (float_of_int (j + 1))) in
      let sequential = Linalg.Csr.mul_vec a (Linalg.Vec.of_array x) in
      with_pool ~jobs:4 @@ fun pool ->
      sequential = Linalg.Csr.mul_vec ~pool a (Linalg.Vec.of_array x))

let prop_vec_mul_matches =
  QCheck2.Test.make ~count:20 ~name:"parallel x A deterministic and close"
    gen_big_matrix (fun (n, m, entries) ->
      let a = Linalg.Csr.of_coo ~rows:n ~cols:m entries in
      let x = Array.init n (fun i -> cos (float_of_int i)) in
      let sequential = Linalg.Csr.vec_mul (Linalg.Vec.of_array x) a in
      with_pool ~jobs:4 @@ fun pool ->
      let par1 = Linalg.Csr.vec_mul ~pool (Linalg.Vec.of_array x) a in
      let par2 = Linalg.Csr.vec_mul ~pool (Linalg.Vec.of_array x) a in
      (* The merge of per-chunk accumulators regroups the additions, so
         only rounding-level differences are allowed — but the grouping
         is static, so repeated runs are bit-identical. *)
      par1 = par2
      && Linalg.Vec.linf_dist sequential par1 <= 1e-12)

(* Duplicate and unsorted COO entries: the counting-sort construction
   must sum duplicates in list order, exactly like naive accumulation. *)
let gen_messy_coo =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let* m = int_range 1 12 in
    let* entries =
      list_size (int_range 0 60)
        (triple (int_range 0 (n - 1)) (int_range 0 (m - 1))
           (oneofl [ -2.0; -1.0; -0.5; 0.5; 1.0; 2.0 ]))
    in
    return (n, m, entries))

let prop_of_coo_exact =
  QCheck2.Test.make ~count:200 ~name:"of_coo sums duplicates in list order"
    gen_messy_coo (fun (n, m, entries) ->
      let a = Linalg.Csr.of_coo ~rows:n ~cols:m entries in
      let dense = Array.make_matrix n m 0.0 in
      List.iter (fun (i, j, v) -> dense.(i).(j) <- dense.(i).(j) +. v) entries;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to m - 1 do
          if Linalg.Csr.get a i j <> dense.(i).(j) then ok := false
        done
      done;
      !ok)

(* ---------------- the three engines across pool sizes -------------- *)

let solve_with ~pool p =
  [ ("sericola", Perf.Sericola.solve ~epsilon:1e-12 ?pool p);
    ("erlang", Perf.Erlang_approx.solve ~phases:128 ?pool p);
    ( "discretise",
      let limit = Perf.Discretization.max_stable_step p in
      let d = ref (1.0 /. 16.0) in
      while !d > limit || !d > 1.0 /. 64.0 do
        d := !d /. 2.0
      done;
      Perf.Discretization.solve ~step:!d ?pool p ) ]

(* The occupation-time recursion partitions every layer by state, so its
   one-recursion entry points must agree bitwise at every pool size.  A
   24-state model takes the state range past the dispatch cutoff. *)
let sericola_entry_points ~pool p =
  let mrm = p.Perf.Problem.mrm in
  let t = p.Perf.Problem.time_bound and r = p.Perf.Problem.reward_bound in
  let rows = Array.init (Markov.Mrm.n_states mrm) Fun.id in
  let bits = Array.map Int64.bits_of_float in
  [ ("solve_rows", bits (Perf.Sericola.solve_rows ~epsilon:1e-12 ?pool p ~rows));
    ( "solve_many",
      bits
        (Perf.Sericola.solve_many ~epsilon:1e-12 ?pool p
           ~reward_bounds:[| 0.5 *. r; r; 1.5 *. r |]) );
    ( "joint_matrix",
      bits
        (Array.concat
           (Array.to_list
              (Perf.Sericola.joint_matrix ~epsilon:1e-12 ?pool mrm ~t ~r))) ) ]

let prop_engines_pool_invariant =
  QCheck2.Test.make ~count:8 ~name:"engines agree across jobs in {1,2,4}"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let p =
        Models.Random_mrm.generate_problem ~seed:(Int64.of_int seed)
          Models.Random_mrm.default
      in
      let big =
        Models.Random_mrm.generate_problem ~seed:(Int64.of_int seed)
          { Models.Random_mrm.default with n_states = 24 }
      in
      let sequential = solve_with ~pool:None p in
      let sequential_entry_points = sericola_entry_points ~pool:None big in
      List.for_all
        (fun jobs ->
          with_pool ~jobs @@ fun pool ->
          let pooled = solve_with ~pool:(Some pool) p in
          List.for_all2
            (fun (name, a) (_, b) ->
              let close = Float.abs (a -. b) <= 1e-12 in
              (* jobs = 1 is the exact sequential code path. *)
              let exact_ok = jobs > 1 || a = b in
              if not (close && exact_ok) then
                QCheck2.Test.fail_reportf
                  "%s: jobs=%d gives %.17g, sequential %.17g (seed %d)" name
                  jobs b a seed
              else true)
            sequential pooled
          && List.for_all2
               (fun (name, a) (_, b) ->
                 a = b
                 || QCheck2.Test.fail_reportf
                      "sericola %s: jobs=%d differs from sequential (seed %d)"
                      name jobs seed)
               sequential_entry_points
               (sericola_entry_points ~pool:(Some pool) big))
        [ 1; 2; 4 ])

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "parallel",
    [ Alcotest.test_case "pool lifecycle" `Quick test_pool_lifecycle;
      Alcotest.test_case "parallel_for coverage" `Quick test_parallel_for_covers;
      Alcotest.test_case "cutoff inlines" `Quick test_cutoff_inlines;
      Alcotest.test_case "exception propagation" `Quick test_exceptions_propagate;
      Alcotest.test_case "nested runs inline" `Quick test_nested_runs_inline;
      q prop_mul_vec_bit_identical;
      q prop_vec_mul_matches;
      q prop_of_coo_exact;
      q prop_engines_pool_invariant ] )
