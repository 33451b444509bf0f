(* Tests for the batched multi-query engine: the defining invariant is
   that [Batch.run] answers every query bit-identically to a sequential
   single-query [Checker.eval_query] run — with and without an
   across-queries domain pool — while the shared memo's cache counters
   stay consistent.  A robust context over the zero-width model answers
   the same queries through the same recursion, bit for bit. *)

let verdict_equal a b =
  match (a, b) with
  | Checker.Boolean x, Checker.Boolean y -> x = y
  | Checker.Numeric x, Checker.Numeric y -> x = y
  | _ -> false

let pp_verdict = function
  | Checker.Boolean mask ->
    String.concat ""
      (List.map (fun b -> if b then "1" else "0") (Array.to_list mask))
  | Checker.Numeric v ->
    String.concat " "
      (List.map (Printf.sprintf "%.17g") (Array.to_list (Linalg.Vec.to_array v)))
  | Checker.Three_valued tris ->
    String.concat ""
      (List.map
         (fun t -> String.sub (Checker.tri_to_string t) 0 1)
         (Array.to_list tris))
  | Checker.Interval { Robust.Envelope.lo; hi } ->
    String.concat " "
      (List.map2 (Printf.sprintf "[%.17g, %.17g]")
         (Array.to_list (Linalg.Vec.to_array lo))
         (Array.to_list (Linalg.Vec.to_array hi)))

(* A zero-width robust verdict is the precise one, bit for bit: the
   three-valued states of the mask, or the degenerate interval of each
   value. *)
let robust_equal precise robust =
  let bits v = Array.map Int64.bits_of_float (Linalg.Vec.to_array v) in
  match (precise, robust) with
  | Checker.Boolean mask, Checker.Three_valued tris ->
    Array.map Checker.tri_of_bool mask = tris
  | Checker.Numeric v, Checker.Interval { Robust.Envelope.lo; hi } ->
    bits lo = bits v && bits hi = bits v
  | _ -> false

(* A pool of well-formed CSRL queries over the propositions of
   {!Models.Random_mrm.generate_labeled}.  Reward-bounded-only untils are
   deliberately absent: on random models they may hit the [P2] duality's
   zero-reward restriction ([Checker.Unsupported]), which is orthogonal
   to what the batch engine adds.  Overlapping subformulas are the
   point — they are what the caches share. *)
let query_pool =
  [ "P=? ( a U b )";
    "P=? ( X a )";
    "P=? ( (a | b) U[t<=1] c )";
    "P=? ( (a | b) U[t<=2] c )";
    "P=? ( a U[t<=2][r<=3] b )";
    "P=? ( a U[t<=2][r<=2] b )";
    "P=? ( a U[t<=1][r<=3] b )";
    "P=? ( (a | b) U[t<=1.5][r<=2] c )";
    (* The masks and bounds above under another path formula: its own
       path value, solved again over the shared pipeline. *)
    "P=? ( (b | a) U[t<=1.5][r<=2] c )";
    "P>=0.1 ( a U[t<=2][r<=3] b )";
    "P>=0.5 ( a U[t<=2][r<=3] b )";
    "P>=0.9 ( a U[t<=2][r<=3] b )";
    "P<=0.5 ( (a | b) U[t<=1] c )";
    "S=? ( b )";
    "P=? ( F[t<=1] (b & !c) )";
    "P=? ( (P>=0.5 ( a U[t<=2][r<=3] b )) U[t<=1] c )" ]

(* The pool's queries that interval models refuse, zero width included:
   no envelope procedure bounds an unbounded until, a next or a
   steady-state operator. *)
let refused_on_intervals = [ "P=? ( a U b )"; "P=? ( X a )"; "S=? ( b )" ]

let gen_batch =
  QCheck2.Gen.(
    pair (int_range 0 10_000)
      (list_size (int_range 1 8) (oneofl query_pool)))

let check_counters what counters =
  List.iter
    (fun (name, (c : Perf.Batch.counters)) ->
      if c.Perf.Batch.lookups < 0 || c.Perf.Batch.hits < 0
         || c.Perf.Batch.misses < 0 then
        QCheck2.Test.fail_reportf "%s: cache %s has a negative counter" what
          name;
      if c.Perf.Batch.hits + c.Perf.Batch.misses <> c.Perf.Batch.lookups then
        QCheck2.Test.fail_reportf
          "%s: cache %s: hits (%d) + misses (%d) <> lookups (%d)" what name
          c.Perf.Batch.hits c.Perf.Batch.misses c.Perf.Batch.lookups)
    counters

let batch_matches_sequential =
  QCheck2.Test.make ~count:25
    ~name:"batched verdicts bit-identical to single-query runs" gen_batch
    (fun (seed, texts) ->
      let m, labeling =
        Models.Random_mrm.generate_labeled ~seed:(Int64.of_int seed)
          Models.Random_mrm.default
      in
      let queries = List.map Logic.Parser.query texts in
      let ctx = Checker.make m labeling in
      let expected = List.map (Checker.eval_query ctx) queries in
      let check what actual =
        List.iteri
          (fun i (want, got) ->
            if not (verdict_equal want got) then
              QCheck2.Test.fail_reportf
                "%s: query %d (%s) differs:\n  sequential %s\n  batched    %s"
                what i (List.nth texts i) (pp_verdict want) (pp_verdict got))
          (List.combine expected actual)
      in
      (* Without a pool: every query on the plain sequential path. *)
      let memo = Checker.create_memo () in
      check "no pool" (Batch.run ~memo ctx queries);
      let counters = Checker.memo_counters memo in
      check_counters "no pool" counters;
      (* The zero-width robust context, every query through one shared
         memo. *)
      let robust = Checker.make_robust (Robust.Imrm.point m) labeling in
      let robust_memo = Checker.create_memo () in
      List.iteri
        (fun i (text, want) ->
          let refused = List.mem text refused_on_intervals in
          match Checker.eval_query ~memo:robust_memo robust (List.nth queries i)
          with
          | got ->
            if refused then
              QCheck2.Test.fail_reportf
                "zero width: query %d (%s) answered; interval models refuse it"
                i text;
            if not (robust_equal want got) then
              QCheck2.Test.fail_reportf
                "zero width: query %d (%s) differs:\n  precise %s\n  robust  %s"
                i text (pp_verdict want) (pp_verdict got)
          | exception Checker.Unsupported message ->
            if not refused then
              QCheck2.Test.fail_reportf "zero width: query %d (%s) refused: %s"
                i text message)
        (List.combine texts expected);
      check_counters "zero width" (Checker.memo_counters robust_memo);
      let sat_lookups =
        match List.assoc_opt "sat" counters with
        | Some c -> c.Perf.Batch.lookups
        | None -> QCheck2.Test.fail_report "no \"sat\" cache in the memo"
      in
      if sat_lookups = 0 then
        QCheck2.Test.fail_report "batch consulted no Sat-set at all";
      (* Re-running on the same memo must hit for every repeated key and
         still answer identically. *)
      check "warm memo" (Batch.run ~memo ctx queries);
      check_counters "warm memo" (Checker.memo_counters memo);
      (* Across a pool: queries dispatched over 3 domains, kernels still
         forced onto the sequential path. *)
      Parallel.Pool.with_pool ~jobs:3 (fun pool ->
          let memo = Checker.create_memo () in
          check "pool" (Batch.run ~pool ~memo ctx queries);
          check_counters "pool" (Checker.memo_counters memo));
      true)

(* The memo is an argument of [eval_query] too: a memoised single-query
   call must agree with the uncached path and must not alias its own
   cache (mutating a returned verdict must not corrupt later answers). *)
let test_memo_no_aliasing () =
  let m, labeling =
    Models.Random_mrm.generate_labeled ~seed:99L Models.Random_mrm.default
  in
  let ctx = Checker.make m labeling in
  let query = Logic.Parser.query "P=? ( a U[t<=2][r<=3] b )" in
  let memo = Checker.create_memo () in
  let expected = Checker.eval_query ctx query in
  let first = Checker.eval_query ~memo ctx query in
  (match first with
   | Checker.Numeric v -> Array.fill (Linalg.Vec.to_array v) 0 (Array.length (Linalg.Vec.to_array v)) 42.0
   | _ -> Alcotest.fail "expected a numeric verdict");
  let second = Checker.eval_query ~memo ctx query in
  if not (verdict_equal expected second) then
    Alcotest.fail "mutating a memoised verdict corrupted the cache"

(* The Fox-Glynn window cache is keyed by (q, epsilon) and must return
   the exact window a cold computation produces. *)
let test_fox_glynn_cache_identity () =
  Numerics.Fox_glynn.cache_clear ();
  let cold = Numerics.Fox_glynn.compute ~q:468.0 ~epsilon:1e-9 in
  let warm = Numerics.Fox_glynn.compute ~q:468.0 ~epsilon:1e-9 in
  if cold <> warm then Alcotest.fail "cached window differs from cold";
  let c = Numerics.Fox_glynn.cache_counters () in
  Alcotest.(check int) "lookups" 2 c.Numerics.Fox_glynn.lookups;
  Alcotest.(check int) "hits" 1 c.Numerics.Fox_glynn.hits;
  Alcotest.(check int) "misses" 1 c.Numerics.Fox_glynn.misses;
  Numerics.Fox_glynn.cache_clear ();
  let c = Numerics.Fox_glynn.cache_counters () in
  Alcotest.(check int) "cleared" 0 c.Numerics.Fox_glynn.lookups

(* A program context's queries share one Perf.Symbolic handle, whose
   interned space and materialised twin are mutable: a batch spread over
   two domains answers every query bit-identically to the sequential
   run, reward fallbacks (which materialise the twin) included. *)
let test_program_across_domains () =
  let succ =
    match Lang.Gcm.of_string (Models.Gcm_examples.grid ~n:12 ()) with
    | Ok succ -> succ
    | Error message -> Alcotest.fail message
  in
  let queries =
    List.map Logic.Parser.query
      [ "P=? ( true U[t<=2] frontier )"; "P=? ( true U[t<=3] frontier )";
        "P=? ( true U[t<=4] frontier )"; "P>=0.2 ( true U[t<=5] frontier )";
        "P=? ( !corner U[t<=6] frontier )"; "P=? ( true U[t<=3][r<=5] frontier )";
        "P=? ( true U[t<=7] corner )"; "P<0.5 ( true U[t<=4][r<=8] frontier )" ]
  in
  let run ?pool () =
    Batch.run ?pool
      (Checker.make_program ~epsilon:1e-9 (Perf.Symbolic.create succ))
      queries
    |> List.map pp_verdict
  in
  let sequential = run () in
  Parallel.Pool.with_pool ~jobs:2 (fun pool ->
      for round = 1 to 3 do
        Alcotest.(check (list string))
          (Printf.sprintf "two domains, round %d" round)
          sequential (run ~pool ())
      done)

let suite =
  ( "batch",
    [ QCheck_alcotest.to_alcotest batch_matches_sequential;
      Alcotest.test_case "memoised verdicts are fresh copies" `Quick
        test_memo_no_aliasing;
      Alcotest.test_case "fox-glynn cache identity" `Quick
        test_fox_glynn_cache_identity;
      Alcotest.test_case "program queries across domains" `Quick
        test_program_across_domains ] )
