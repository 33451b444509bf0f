(* Tests for the lumpability quotient. *)

let check_close ?(tol = 1e-9) what expected actual =
  if not (Numerics.Float_utils.approx_eq ~rel:tol ~abs:tol expected actual)
  then Alcotest.failf "%s: expected %.17g, got %.17g" what expected actual

(* A pool of [k] independent, identical machines tracked individually:
   2^k states, each machine failing with rate f and repaired (its own
   repairer) with rate r.  Labels and rewards depend only on the number
   of working machines, so the quotient must be the (k+1)-state counting
   chain. *)
let machine_pool ~k ~fail ~repair =
  let n = 1 lsl k in
  let popcount x =
    let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
    go x 0
  in
  let triples = ref [] in
  for s = 0 to n - 1 do
    for machine = 0 to k - 1 do
      let bit = 1 lsl machine in
      if s land bit <> 0 then triples := (s, s lxor bit, fail) :: !triples
      else triples := (s, s lxor bit, repair) :: !triples
    done
  done;
  let rewards = Array.init n (fun s -> float_of_int (popcount s)) in
  let mrm = Markov.Mrm.of_transitions ~n !triples ~rewards in
  let labeling =
    Markov.Labeling.make ~n
      [ ("all_up", [ n - 1 ]);
        ("none_up", [ 0 ]);
        ( "quorum",
          List.filter (fun s -> popcount s * 2 > k) (List.init n Fun.id) ) ]
  in
  (mrm, labeling, popcount)

let test_pool_collapses () =
  let k = 4 in
  let mrm, labeling, popcount = machine_pool ~k ~fail:0.1 ~repair:2.0 in
  let l = Markov.Lumping.compute mrm labeling in
  Alcotest.(check int) "counting abstraction" (k + 1) l.Markov.Lumping.n_blocks;
  (* Blocks are exactly the popcount classes. *)
  for s = 0 to (1 lsl k) - 1 do
    for s' = 0 to (1 lsl k) - 1 do
      let same_block =
        l.Markov.Lumping.block_of_state.(s) = l.Markov.Lumping.block_of_state.(s')
      in
      Alcotest.(check bool)
        (Printf.sprintf "states %d,%d" s s')
        (popcount s = popcount s') same_block
    done
  done;
  (* Quotient rates: from count c, failures pool to c * fail. *)
  let block_of_count c =
    let s = (1 lsl c) - 1 in
    l.Markov.Lumping.block_of_state.(s)
  in
  let q = Markov.Mrm.ctmc l.Markov.Lumping.quotient in
  check_close "pooled failure rate" (3.0 *. 0.1)
    (Markov.Ctmc.rate q (block_of_count 3) (block_of_count 2));
  check_close "pooled repair rate" (2.0 *. 2.0)
    (Markov.Ctmc.rate q (block_of_count 2) (block_of_count 3));
  check_close "quotient reward" 3.0
    (Markov.Mrm.reward l.Markov.Lumping.quotient (block_of_count 3))

let test_transient_preserved () =
  let mrm, labeling, _ = machine_pool ~k:3 ~fail:0.2 ~repair:1.5 in
  let l = Markov.Lumping.compute mrm labeling in
  let n = Markov.Mrm.n_states mrm in
  let init = Linalg.Vec.unit n (n - 1) in
  let t = 0.8 in
  let full = Markov.Transient.distribution (Markov.Mrm.ctmc mrm) ~init ~t in
  let quotient_pi =
    Markov.Transient.distribution
      (Markov.Mrm.ctmc l.Markov.Lumping.quotient)
      ~init:(Markov.Lumping.lift l init) ~t
  in
  let aggregated = Markov.Lumping.lift l full in
  Array.iteri
    (fun b expected -> check_close ~tol:1e-10 (Printf.sprintf "block %d" b)
        expected quotient_pi.{b})
    (Linalg.Vec.to_array aggregated)

let test_labels_split () =
  (* Identical dynamics but distinguishing labels must keep states
     apart. *)
  let mrm =
    Markov.Mrm.of_transitions ~n:2 [ (0, 1, 1.0); (1, 0, 1.0) ]
      ~rewards:[| 1.0; 1.0 |]
  in
  let labeling = Markov.Labeling.make ~n:2 [ ("special", [ 0 ]) ] in
  let l = Markov.Lumping.compute mrm labeling in
  Alcotest.(check int) "labels split" 2 l.Markov.Lumping.n_blocks;
  (* Without the label they merge. *)
  let l = Markov.Lumping.compute mrm (Markov.Labeling.empty ~n:2) in
  Alcotest.(check int) "merge" 1 l.Markov.Lumping.n_blocks

let test_rewards_split () =
  let mrm =
    Markov.Mrm.of_transitions ~n:2 [ (0, 1, 1.0); (1, 0, 1.0) ]
      ~rewards:[| 1.0; 2.0 |]
  in
  let l = Markov.Lumping.compute mrm (Markov.Labeling.empty ~n:2) in
  Alcotest.(check int) "rewards split" 2 l.Markov.Lumping.n_blocks

let test_rates_split () =
  (* Same labels/rewards but different dynamics: a fast and a slow state
     must not merge. *)
  let mrm =
    Markov.Mrm.of_transitions ~n:3
      [ (0, 2, 1.0); (1, 2, 5.0); (2, 0, 1.0) ]
      ~rewards:[| 1.0; 1.0; 0.0 |]
  in
  let l = Markov.Lumping.compute mrm (Markov.Labeling.empty ~n:3) in
  Alcotest.(check bool) "different exit rates split" true
    (l.Markov.Lumping.block_of_state.(0) <> l.Markov.Lumping.block_of_state.(1))

let test_lift_lower () =
  let mrm, labeling, _ = machine_pool ~k:2 ~fail:0.3 ~repair:1.0 in
  let l = Markov.Lumping.compute mrm labeling in
  let v = [| 0.1; 0.2; 0.3; 0.4 |] in
  let lifted = Markov.Lumping.lift l (Linalg.Vec.of_array v) in
  check_close "mass preserved" (Linalg.Vec.sum (Linalg.Vec.of_array v)) (Linalg.Vec.sum lifted);
  let w = Array.init l.Markov.Lumping.n_blocks float_of_int in
  let lowered = Markov.Lumping.lower l (Linalg.Vec.of_array w) in
  Array.iteri
    (fun s b -> check_close "lower" w.(b) lowered.{s})
    l.Markov.Lumping.block_of_state

(* The property that matters: CSRL answers computed on the quotient equal
   the answers on the full model. *)
let test_checking_commutes () =
  let mrm, labeling, _ = machine_pool ~k:3 ~fail:0.25 ~repair:2.0 in
  let l = Markov.Lumping.compute mrm labeling in
  let full_ctx = Checker.make ~epsilon:1e-11 mrm labeling in
  let quotient_ctx =
    Checker.make ~epsilon:1e-11 l.Markov.Lumping.quotient
      l.Markov.Lumping.labeling
  in
  List.iter
    (fun text ->
      let q = Logic.Parser.query text in
      match Checker.eval_query full_ctx q, Checker.eval_query quotient_ctx q with
      | Checker.Numeric full, Checker.Numeric quotient ->
        let lowered = Markov.Lumping.lower l quotient in
        Array.iteri
          (fun s expected ->
            check_close ~tol:1e-8
              (Printf.sprintf "%s at %d" text s)
              expected full.{s})
          (Linalg.Vec.to_array lowered)
      | _ -> Alcotest.fail "expected numeric")
    [ "P=? ( F[t<=2] none_up )";
      "P=? ( quorum U[t<=4][r<=6] none_up )";
      "S=? ( all_up )";
      "R=? ( C[t<=3] )" ]

(* ---------------- the string-signature reference ------------------- *)

(* 1.23456789012 has 12 significant digits.  Adding 1e-14 or 1e-12
   changes the 15th or the 13th digit, which %.12g rounds away: such a
   pair must share a block.  Adding 1e-11 or 1e-10 changes the 12th or
   the 11th: such a pair must split.  0.1 + 0.2 and 0.3 differ in their
   last bit and render alike. *)
let near = 1.23456789012

let palette =
  [| 1.0; 2.0; 0.5; 0.1 +. 0.2; 0.3; near; near +. 1e-14; near +. 1e-12;
     near +. 1e-11; near +. 1e-10 |]

let test_near_rates () =
  let split rate rate' =
    let mrm =
      Markov.Mrm.of_transitions ~n:3
        [ (0, 2, rate); (1, 2, rate'); (2, 0, 1.0) ]
        ~rewards:[| 1.0; 1.0; 0.0 |]
    in
    let l = Markov.Lumping.compute mrm (Markov.Labeling.empty ~n:3) in
    l.Markov.Lumping.block_of_state.(0) <> l.Markov.Lumping.block_of_state.(1)
  in
  List.iter
    (fun (name, rate', apart) ->
      Alcotest.(check bool) name apart (split near rate'))
    [ ("15th digit: one block", near +. 1e-14, false);
      ("13th digit: one block", near +. 1e-12, false);
      ("12th digit: split", near +. 1e-11, true);
      ("11th digit: split", near +. 1e-10, true) ];
  Alcotest.(check bool) "0.1 + 0.2 and 0.3: one block" false
    (split (0.1 +. 0.2) 0.3)

(* A random model on n states, or its twin on 2n: state u + n copies
   state u's labels, reward and transitions (to the copies of their
   targets), with every near-variant rate swapped for a random
   near-variant, so whether u and u + n share a block turns on the
   renderings alone. *)
let gen_lumping_model =
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    let state = int_range 0 (n - 1) in
    let variant k =
      if palette.(k) >= near then int_range 5 (Array.length palette - 1)
      else return k
    in
    let* edges =
      list_size (int_range 0 (3 * n))
        (let* u = state and* v = state
         and* k = int_range 0 (Array.length palette - 1) in
         let* k' = variant k in
         return (u, v, k, k'))
    in
    let* rewards = array_repeat n (int_range 0 2) in
    let* marked = array_repeat n bool in
    let* twin = bool in
    return (n, edges, rewards, marked, twin))

let lumping_model (n, edges, rewards, marked, twin) =
  let copies = if twin then 2 else 1 in
  let triples =
    List.concat_map
      (fun (u, v, k, k') ->
        (u, v, palette.(k))
        :: (if twin then [ (u + n, v + n, palette.(k')) ] else []))
      edges
  in
  let size = copies * n in
  let mrm =
    Markov.Mrm.of_transitions ~n:size triples
      ~rewards:(Array.init size (fun s -> float_of_int rewards.(s mod n)))
  in
  let labeling =
    Markov.Labeling.make ~n:size
      [ ("a", List.filter (fun s -> marked.(s mod n)) (List.init size Fun.id)) ]
  in
  (mrm, labeling)

let print_lumping_model (n, edges, rewards, marked, twin) =
  Printf.sprintf "n = %d%s, edges = [%s], rewards = [%s], a = [%s]" n
    (if twin then " (twinned)" else "")
    (String.concat "; "
       (List.map
          (fun (u, v, k, k') ->
            Printf.sprintf "(%d, %d, %h, %h)" u v palette.(k) palette.(k'))
          edges))
    (String.concat "; " (Array.to_list (Array.map string_of_int rewards)))
    (String.concat "; " (Array.to_list (Array.map string_of_bool marked)))

(* Every stored quotient entry and reward bit for bit, and the
   quotient labeling. *)
let same_lumping (l : Markov.Lumping.t) (r : Markov.Lumping.t) =
  let entries m =
    let acc = ref [] in
    Linalg.Csr.iter (Markov.Ctmc.rates (Markov.Mrm.ctmc m)) (fun i j v ->
        acc := (i, j, Int64.bits_of_float v) :: !acc);
    !acc
  in
  let rewards m =
    List.init (Markov.Mrm.n_states m) (fun s ->
        Int64.bits_of_float (Markov.Mrm.reward m s))
  in
  l.block_of_state = r.block_of_state
  && l.n_blocks = r.n_blocks
  && l.representative = r.representative
  && entries l.quotient = entries r.quotient
  && rewards l.quotient = rewards r.quotient
  && List.map (Markov.Labeling.sat l.labeling)
       (Markov.Labeling.propositions l.labeling)
     = List.map (Markov.Labeling.sat r.labeling)
         (Markov.Labeling.propositions r.labeling)

let prop_matches_reference =
  QCheck2.Test.make ~count:300 ~print:print_lumping_model
    ~name:"lumping matches the string-signature reference" gen_lumping_model
    (fun model ->
      let mrm, labeling = lumping_model model in
      same_lumping (Markov.Lumping.compute mrm labeling)
        (Ref_lumping.compute mrm labeling))

(* Symmetric pools give the reference many merges to agree on. *)
let prop_pools_match_reference =
  QCheck2.Test.make ~count:40
    ~name:"machine-pool lumping matches the string-signature reference"
    QCheck2.Gen.(
      triple (int_range 1 6) (int_range 0 (Array.length palette - 1))
        (int_range 0 (Array.length palette - 1)))
    (fun (k, fail, repair) ->
      let mrm, labeling, _ =
        machine_pool ~k ~fail:palette.(fail) ~repair:palette.(repair)
      in
      let l = Markov.Lumping.compute mrm labeling in
      l.Markov.Lumping.n_blocks = k + 1
      && same_lumping l (Ref_lumping.compute mrm labeling))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "lumping",
    [ Alcotest.test_case "pool collapses to counting" `Quick
        test_pool_collapses;
      Alcotest.test_case "transient preserved" `Quick test_transient_preserved;
      Alcotest.test_case "labels split" `Quick test_labels_split;
      Alcotest.test_case "rewards split" `Quick test_rewards_split;
      Alcotest.test_case "rates split" `Quick test_rates_split;
      Alcotest.test_case "lift and lower" `Quick test_lift_lower;
      Alcotest.test_case "checking commutes" `Quick test_checking_commutes;
      Alcotest.test_case "near-equal rates" `Quick test_near_rates;
      q prop_matches_reference;
      q prop_pools_match_reference ] )
