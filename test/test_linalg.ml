(* Unit and property tests for vectors, CSR matrices and solvers. *)

let check_close ?(tol = 1e-12) what expected actual =
  if not (Numerics.Float_utils.approx_eq ~rel:tol ~abs:tol expected actual)
  then Alcotest.failf "%s: expected %.17g, got %.17g" what expected actual

let check_vec ?(tol = 1e-12) what expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: length mismatch" what;
  Array.iteri
    (fun i e -> check_close ~tol (Printf.sprintf "%s[%d]" what i) e actual.(i))
    expected

(* ------------------------------------------------------------------ *)

let vec = Linalg.Vec.of_array

let test_vec_basics () =
  check_vec "create" [| 0.0; 0.0 |] (Linalg.Vec.to_array (Linalg.Vec.create 2));
  check_vec "init" [| 0.0; 1.0; 2.0 |] (Linalg.Vec.to_array (Linalg.Vec.init 3 float_of_int));
  check_vec "scale" [| 2.0; 4.0 |] (Linalg.Vec.to_array (Linalg.Vec.scale 2.0 (vec [| 1.0; 2.0 |])));
  check_vec "add" [| 4.0; 6.0 |] (Linalg.Vec.to_array (Linalg.Vec.add (vec [| 1.0; 2.0 |]) (vec [| 3.0; 4.0 |])));
  let y = vec [| 1.0; 1.0 |] in
  Linalg.Vec.axpy ~alpha:2.0 ~x:(vec [| 1.0; 2.0 |]) ~y;
  check_vec "axpy" [| 3.0; 5.0 |] (Linalg.Vec.to_array y);
  check_close "dot" 11.0 (Linalg.Vec.dot (vec [| 1.0; 2.0 |]) (vec [| 3.0; 4.0 |]));
  check_close "sum" 6.0 (Linalg.Vec.sum (vec [| 1.0; 2.0; 3.0 |]));
  check_vec "normalize" [| 0.25; 0.75 |]
    (Linalg.Vec.to_array (Linalg.Vec.normalize (vec [| 1.0; 3.0 |])));
  check_close "masked_sum" 5.0
    (Linalg.Vec.masked_sum (vec [| 1.0; 2.0; 4.0 |]) [| true; false; true |]);
  check_vec "unit" [| 0.0; 1.0; 0.0 |] (Linalg.Vec.to_array (Linalg.Vec.unit 3 1));
  check_close "linf" 2.0 (Linalg.Vec.linf_dist (vec [| 0.0; 3.0 |]) (vec [| 1.0; 5.0 |]));
  Alcotest.(check bool) "is_distribution yes" true
    (Linalg.Vec.is_distribution (vec [| 0.5; 0.5 |]));
  Alcotest.(check bool) "is_distribution no" false
    (Linalg.Vec.is_distribution (vec [| 0.5; 0.6 |]));
  Alcotest.(check bool) "is_sub_distribution" true
    (Linalg.Vec.is_sub_distribution (vec [| 0.2; 0.3 |]));
  Alcotest.check_raises "normalize zero"
    (Invalid_argument "Vec.normalize: non-positive sum") (fun () ->
      ignore (Linalg.Vec.normalize (vec [| 0.0; 0.0 |])))

let dense_example = [| [| 0.0; 2.0; 0.0 |]; [| 1.0; 0.0; 3.0 |]; [| 0.0; 0.0; 0.0 |] |]

let test_csr_roundtrip () =
  let a = Linalg.Csr.of_dense dense_example in
  Alcotest.(check int) "rows" 3 (Linalg.Csr.rows a);
  Alcotest.(check int) "cols" 3 (Linalg.Csr.cols a);
  Alcotest.(check int) "nnz" 3 (Linalg.Csr.nnz a);
  let back = Linalg.Csr.to_dense a in
  Array.iteri (fun i row -> check_vec (Printf.sprintf "row %d" i) row back.(i))
    dense_example;
  check_close "get stored" 3.0 (Linalg.Csr.get a 1 2);
  check_close "get zero" 0.0 (Linalg.Csr.get a 0 0)

let test_csr_duplicates () =
  let a = Linalg.Csr.of_coo ~rows:2 ~cols:2 [ (0, 1, 1.0); (0, 1, 2.5); (1, 0, -1.0); (1, 0, 1.0) ] in
  check_close "summed" 3.5 (Linalg.Csr.get a 0 1);
  (* The (1,0) entries cancel exactly and must be dropped. *)
  Alcotest.(check int) "cancelled dropped" 1 (Linalg.Csr.nnz a);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Csr.of_coo: entry (2,0) out of 2x2") (fun () ->
      ignore (Linalg.Csr.of_coo ~rows:2 ~cols:2 [ (2, 0, 1.0) ]))

let test_csr_products () =
  let a = Linalg.Csr.of_dense dense_example in
  check_vec "A x" [| 4.0; 10.0; 0.0 |] (Linalg.Vec.to_array (Linalg.Csr.mul_vec a (Linalg.Vec.of_array [| 1.0; 2.0; 3.0 |])));
  check_vec "x A" [| 2.0; 2.0; 6.0 |] (Linalg.Vec.to_array (Linalg.Csr.vec_mul (Linalg.Vec.of_array [| 1.0; 2.0; 3.0 |]) a));
  let t = Linalg.Csr.transpose a in
  check_close "transpose entry" 2.0 (Linalg.Csr.get t 1 0);
  check_vec "A^T x = x A" (Linalg.Vec.to_array (Linalg.Csr.vec_mul (Linalg.Vec.of_array [| 1.0; 2.0; 3.0 |]) a))
    (Linalg.Vec.to_array (Linalg.Csr.mul_vec t (Linalg.Vec.of_array [| 1.0; 2.0; 3.0 |])))

let test_csr_utils () =
  let a = Linalg.Csr.of_dense dense_example in
  check_close "row_sum" 4.0 (Linalg.Csr.row_sum a 1);
  let doubled = Linalg.Csr.scale 2.0 a in
  check_close "scale" 6.0 (Linalg.Csr.get doubled 1 2);
  let mapped = Linalg.Csr.mapi (fun i j v -> if i = 1 && j = 0 then 0.0 else v) a in
  Alcotest.(check int) "mapi dropped a zero" 2 (Linalg.Csr.nnz mapped);
  let eye = Linalg.Csr.identity 3 in
  check_vec "identity action" [| 1.0; 2.0; 3.0 |]
    (Linalg.Vec.to_array (Linalg.Csr.mul_vec eye (Linalg.Vec.of_array [| 1.0; 2.0; 3.0 |])));
  check_vec "diagonal" [| 0.0; 0.0; 0.0 |] (Linalg.Vec.to_array (Linalg.Csr.diagonal a));
  let filtered = Linalg.Csr.filter_rows a ~keep:(fun i -> i <> 1) in
  check_close "filter_rows keeps" 2.0 (Linalg.Csr.get filtered 0 1);
  check_close "filter_rows drops" 0.0 (Linalg.Csr.get filtered 1 2);
  Alcotest.(check bool) "equal_approx" true
    (Linalg.Csr.equal_approx a (Linalg.Csr.of_dense dense_example));
  Alcotest.(check bool) "equal_approx differs" false
    (Linalg.Csr.equal_approx a eye)

(* Fixed point x = A x + b with A = [[0, 1/2], [0, 0]], b = [0; 1]:
   solution x = [1/2; 1]. *)
let test_fixpoint_solvers () =
  let a = Linalg.Csr.of_dense [| [| 0.0; 0.5 |]; [| 0.0; 0.0 |] |] in
  let b = [| 0.0; 1.0 |] in
  let jac = Linalg.Solvers.jacobi_fixpoint a ~b:(Linalg.Vec.of_array b) in
  Alcotest.(check bool) "jacobi converged" true jac.Linalg.Solvers.converged;
  check_vec ~tol:1e-10 "jacobi solution" [| 0.5; 1.0 |] (Linalg.Vec.to_array jac.Linalg.Solvers.solution);
  let gs = Linalg.Solvers.gauss_seidel_fixpoint a ~b:(Linalg.Vec.of_array b) in
  Alcotest.(check bool) "gs converged" true gs.Linalg.Solvers.converged;
  check_vec ~tol:1e-10 "gs solution" [| 0.5; 1.0 |] (Linalg.Vec.to_array gs.Linalg.Solvers.solution);
  (* Gauss-Seidel should use no more sweeps than Jacobi here. *)
  if gs.Linalg.Solvers.iterations > jac.Linalg.Solvers.iterations then
    Alcotest.fail "gauss-seidel slower than jacobi on a triangular system";
  (* A non-converging setup: x = x + 1 diverges and must be reported. *)
  let bad = Linalg.Solvers.jacobi_fixpoint ~max_iter:50 (Linalg.Csr.identity 1) ~b:(Linalg.Vec.of_array [| 1.0 |]) in
  Alcotest.(check bool) "divergence flagged" false bad.Linalg.Solvers.converged

(* Two-state chain with P = [[1-a, a], [b, 1-b]]: stationary distribution
   is (b, a) / (a + b). *)
let test_power_stationary () =
  let a = 0.3 and b = 0.1 in
  let p = Linalg.Csr.of_dense [| [| 1.0 -. a; a |]; [| b; 1.0 -. b |] |] in
  let outcome = Linalg.Solvers.power_stationary ~tol:1e-14 p in
  Alcotest.(check bool) "converged" true outcome.Linalg.Solvers.converged;
  check_vec ~tol:1e-10 "stationary"
    [| b /. (a +. b); a /. (a +. b) |]
    (Linalg.Vec.to_array outcome.Linalg.Solvers.solution)

(* ---------------- property tests ---------------------------------- *)

let gen_matrix =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    let* m = int_range 1 6 in
    let* entries =
      list_size (int_range 0 20)
        (triple (int_range 0 (n - 1)) (int_range 0 (m - 1))
           (float_range (-5.0) 5.0))
    in
    return (n, m, entries))

let prop_dense_roundtrip =
  QCheck2.Test.make ~count:100 ~name:"csr of_dense . to_dense = id" gen_matrix
    (fun (n, m, entries) ->
      let a = Linalg.Csr.of_coo ~rows:n ~cols:m entries in
      let b = Linalg.Csr.of_dense (Linalg.Csr.to_dense a) in
      Linalg.Csr.equal_approx a b)

let prop_transpose_involution =
  QCheck2.Test.make ~count:100 ~name:"transpose involutive" gen_matrix
    (fun (n, m, entries) ->
      let a = Linalg.Csr.of_coo ~rows:n ~cols:m entries in
      Linalg.Csr.equal_approx a (Linalg.Csr.transpose (Linalg.Csr.transpose a)))

let prop_bilinear =
  QCheck2.Test.make ~count:100 ~name:"x (A y) = (x A) y" gen_matrix
    (fun (n, m, entries) ->
      let a = Linalg.Csr.of_coo ~rows:n ~cols:m entries in
      let x = Array.init n (fun i -> float_of_int (i + 1)) in
      let y = Array.init m (fun j -> float_of_int (2 * j) -. 3.0) in
      let lhs = Linalg.Vec.dot (Linalg.Vec.of_array x) (Linalg.Csr.mul_vec a (Linalg.Vec.of_array y)) in
      let rhs = Linalg.Vec.dot (Linalg.Csr.vec_mul (Linalg.Vec.of_array x) a) (Linalg.Vec.of_array y) in
      Numerics.Float_utils.approx_eq ~rel:1e-9 ~abs:1e-9 lhs rhs)

(* ---------------- Bigarray kernel battery -------------------------- *)

(* Reference kernels in seed [float array] form: each row accumulated
   over ascending stored columns with plain [+.] — exactly the summation
   order of the pre-Bigarray implementation.  The Bigarray kernels claim
   bit-identity with that order, so every comparison below is on the raw
   bits, not within a tolerance. *)
let ref_mul_vec a x =
  Array.init (Linalg.Csr.rows a) (fun i ->
      Linalg.Csr.fold_row a i ~init:0.0 ~f:(fun acc j v -> acc +. (v *. x.(j))))

let ref_vec_mul x a =
  let y = Array.make (Linalg.Csr.cols a) 0.0 in
  Linalg.Csr.iter a (fun i j v -> y.(j) <- y.(j) +. (x.(i) *. v));
  y

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_vec (v : Linalg.Vec.t) a =
  Linalg.Vec.length v = Array.length a
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (same_float x v.{i}) then ok := false) a;
  !ok

let gen_matrix_vec =
  QCheck2.Gen.(
    let* n, m, entries = gen_matrix in
    let* x = array_size (return m) (float_range (-3.0) 3.0) in
    let* w = array_size (return n) (float_range (-3.0) 3.0) in
    return (n, m, entries, x, w))

let prop_spmv_matches_seed =
  QCheck2.Test.make ~count:200 ~name:"spmv bit-identical to seed reference"
    gen_matrix_vec (fun (n, m, entries, x, _) ->
      let a = Linalg.Csr.of_coo ~rows:n ~cols:m entries in
      let xv = Linalg.Vec.of_array x in
      let expect = ref_mul_vec a x in
      let fresh = Linalg.Vec.create n in
      Linalg.Csr.spmv_into a xv fresh;
      (* A dirty destination must be fully overwritten, zero rows
         included. *)
      let dirty = Linalg.Vec.init n (fun i -> float_of_int i +. 0.25) in
      Linalg.Csr.spmv_into a xv dirty;
      same_vec (Linalg.Csr.mul_vec a xv) expect
      && same_vec fresh expect && same_vec dirty expect)

let prop_vec_mul_matches_seed =
  QCheck2.Test.make ~count:200 ~name:"vec_mul bit-identical to seed reference"
    gen_matrix_vec (fun (n, m, entries, _, w) ->
      let a = Linalg.Csr.of_coo ~rows:n ~cols:m entries in
      let wv = Linalg.Vec.of_array w in
      let expect = ref_vec_mul w a in
      let dirty = Linalg.Vec.init m (fun j -> float_of_int j -. 0.5) in
      Linalg.Csr.vec_mul_into wv a dirty;
      same_vec (Linalg.Csr.vec_mul wv a) expect && same_vec dirty expect)

let prop_into_variants_bitwise =
  QCheck2.Test.make ~count:200
    ~name:"_into variants bit-identical to allocating forms" gen_matrix_vec
    (fun (_, _, _, x, _) ->
      let n = Array.length x in
      let xv = Linalg.Vec.of_array x in
      let yv = Linalg.Vec.init n (fun i -> float_of_int (n - i) /. 7.0) in
      (* axpy mutates y, so run the in-place form on a copy. *)
      let via_axpy = Linalg.Vec.copy yv in
      Linalg.Vec.axpy ~alpha:0.375 ~x:xv ~y:via_axpy;
      let via_into = Linalg.Vec.create n in
      Linalg.Vec.axpy_into ~alpha:0.375 ~x:xv ~y:yv via_into;
      let scaled = Linalg.Vec.scale 1.75 xv in
      let scaled_into = Linalg.Vec.create n in
      Linalg.Vec.scale_into 1.75 xv scaled_into;
      let scaled_in_place = Linalg.Vec.copy xv in
      Linalg.Vec.scale_in_place 1.75 scaled_in_place;
      let copied = Linalg.Vec.create n in
      Linalg.Vec.copy_into xv copied;
      same_vec via_into (Linalg.Vec.to_array via_axpy)
      && same_vec scaled_into (Linalg.Vec.to_array scaled)
      && same_vec scaled_in_place (Linalg.Vec.to_array scaled)
      && same_vec copied x
      && same_float (Linalg.Vec.dot xv yv)
           (Linalg.Vec.dot (Linalg.Vec.of_array x) yv))

let prop_coo_roundtrip_exact =
  QCheck2.Test.make ~count:200 ~name:"of_coo . iter round-trip exact"
    gen_matrix (fun (n, m, entries) ->
      let a = Linalg.Csr.of_coo ~rows:n ~cols:m entries in
      let triples = ref [] in
      Linalg.Csr.iter a (fun i j v -> triples := (i, j, v) :: !triples);
      let b = Linalg.Csr.of_coo ~rows:n ~cols:m (List.rev !triples) in
      Linalg.Csr.nnz a = Linalg.Csr.nnz b
      &&
      let ok = ref true in
      Linalg.Csr.iter a (fun i j v ->
          if not (same_float v (Linalg.Csr.get b i j)) then ok := false);
      !ok)

(* A deterministic matrix big enough to clear the 256-row sequential
   cutoff, so the pool paths really partition the row range. *)
let big_random_matrix n =
  let st = Random.State.make [| 0x5eed; n |] in
  let entries =
    List.init (n * 4) (fun _ ->
        ( Random.State.int st n,
          Random.State.int st n,
          Random.State.float st 2.0 -. 1.0 ))
  in
  (Linalg.Csr.of_coo ~rows:n ~cols:n entries, st)

let test_spmv_pool_bitwise () =
  let n = 600 in
  let a, st = big_random_matrix n in
  let x = Linalg.Vec.init n (fun _ -> Random.State.float st 1.0) in
  let seq = Linalg.Csr.mul_vec a x in
  let seq_t = Linalg.Csr.vec_mul x a in
  Parallel.Pool.with_pool ~jobs:3 (fun pool ->
      let par = Linalg.Csr.mul_vec ~pool a x in
      for i = 0 to n - 1 do
        if not (same_float seq.{i} par.{i}) then
          Alcotest.failf "pooled spmv differs at row %d: %.17g vs %.17g" i
            seq.{i} par.{i}
      done;
      let par_into = Linalg.Vec.init n (fun i -> float_of_int i) in
      Linalg.Csr.spmv_into ~pool a x par_into;
      for i = 0 to n - 1 do
        if not (same_float seq.{i} par_into.{i}) then
          Alcotest.failf "pooled spmv_into differs at row %d" i
      done;
      (* The transposed product merges per-domain buffers, so the pooled
         path is only guaranteed equal up to rounding. *)
      let par_t = Linalg.Csr.vec_mul ~pool x a in
      for j = 0 to n - 1 do
        if
          not
            (Numerics.Float_utils.approx_eq ~rel:1e-12 ~abs:1e-12 seq_t.{j}
               par_t.{j})
        then Alcotest.failf "pooled vec_mul differs at col %d" j
      done)

(* The layout overhaul's contract: the in-place kernels are
   allocation-free in steady state (measured in minor-heap words; the
   baseline cancels the boxed float [Gc.minor_words] itself returns). *)
let test_kernel_allocation () =
  let n = 300 in
  let a, st = big_random_matrix n in
  let x = Linalg.Vec.init n (fun _ -> Random.State.float st 1.0) in
  let y = Linalg.Vec.create n in
  let z = Linalg.Vec.create n in
  let measure f =
    f ();
    f ();
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let baseline = measure (fun () -> ()) in
  let check ?(allow = 0.0) name f =
    let d = measure f -. baseline in
    if d > allow then
      Alcotest.failf "%s allocated %.0f minor words per call" name d
  in
  check "spmv_into" (fun () -> Linalg.Csr.spmv_into a x y);
  check "vec_mul_into" (fun () -> Linalg.Csr.vec_mul_into x a y);
  check "axpy" (fun () -> Linalg.Vec.axpy ~alpha:0.5 ~x ~y);
  check "axpy_into" (fun () -> Linalg.Vec.axpy_into ~alpha:0.5 ~x ~y z);
  check "scale_into" (fun () -> Linalg.Vec.scale_into 0.5 x z);
  check "scale_in_place" (fun () -> Linalg.Vec.scale_in_place 1.0 y);
  check "copy_into" (fun () -> Linalg.Vec.copy_into x z);
  check "fill_range" (fun () -> Linalg.Vec.fill_range z 0 n 0.0);
  (* Float-returning entry points box their result (a cross-module call
     returns a boxed float on the vanilla compiler) — that one box is the
     whole per-call budget. *)
  check ~allow:4.0 "dot" (fun () -> y.{0} <- Linalg.Vec.dot x x);
  check ~allow:4.0 "sum" (fun () -> y.{0} <- Linalg.Vec.sum x)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "linalg",
    [ Alcotest.test_case "vec basics" `Quick test_vec_basics;
      Alcotest.test_case "csr roundtrip" `Quick test_csr_roundtrip;
      Alcotest.test_case "csr duplicates" `Quick test_csr_duplicates;
      Alcotest.test_case "csr products" `Quick test_csr_products;
      Alcotest.test_case "csr utilities" `Quick test_csr_utils;
      Alcotest.test_case "fixpoint solvers" `Quick test_fixpoint_solvers;
      Alcotest.test_case "power iteration" `Quick test_power_stationary;
      Alcotest.test_case "pooled kernels bit-identical" `Quick
        test_spmv_pool_bitwise;
      Alcotest.test_case "kernels allocation-free" `Quick
        test_kernel_allocation;
      q prop_dense_roundtrip;
      q prop_transpose_involution;
      q prop_bilinear;
      q prop_spmv_matches_seed;
      q prop_vec_mul_matches_seed;
      q prop_into_variants_bitwise;
      q prop_coo_roundtrip_exact ] )
