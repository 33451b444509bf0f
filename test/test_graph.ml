(* Tests for digraphs, SCC decomposition and qualitative reachability. *)

let sorted l = List.sort compare l

let test_digraph () =
  let g = Graph.Digraph.of_edges 4 [ (0, 1); (1, 2); (0, 1); (2, 0); (3, 3) ] in
  Alcotest.(check int) "vertices" 4 (Graph.Digraph.n_vertices g);
  Alcotest.(check bool) "edge present" true
    (List.mem 1 (Graph.Digraph.successors g 0));
  Alcotest.(check bool) "edge absent" false
    (List.mem 0 (Graph.Digraph.successors g 1));
  Alcotest.(check (list int)) "dedup successors" [ 1 ]
    (Graph.Digraph.successors g 0);
  Alcotest.(check (list int)) "self loop" [ 3 ] (Graph.Digraph.successors g 3);
  let r = Graph.Digraph.reverse g in
  Alcotest.(check (list int)) "reverse" [ 0 ] (sorted (Graph.Digraph.successors r 1));
  Alcotest.check_raises "bad vertex"
    (Invalid_argument "Digraph: vertex out of range") (fun () ->
      ignore (Graph.Digraph.successors g 7))

let test_digraph_of_csr () =
  let a = Linalg.Csr.of_coo ~rows:3 ~cols:3 [ (0, 1, 2.0); (1, 2, 0.5) ] in
  let g = Graph.Digraph.of_csr a in
  Alcotest.(check bool) "csr edge" true
    (List.mem 1 (Graph.Digraph.successors g 0));
  Alcotest.(check bool) "csr non-edge" false
    (List.mem 0 (Graph.Digraph.successors g 2))

(* 0 <-> 1 form one SCC; 2 -> 3 -> 2 form another; 0 -> 2 connects them;
   4 is a sink singleton reachable from 3. *)
let scc_example () =
  Graph.Digraph.of_edges 5
    [ (0, 1); (1, 0); (0, 2); (2, 3); (3, 2); (3, 4) ]

let test_scc () =
  let g = scc_example () in
  let r = Graph.Scc.compute g in
  Alcotest.(check int) "count" 3 r.Graph.Scc.count;
  Alcotest.(check bool) "0 and 1 together" true
    (r.Graph.Scc.component.(0) = r.Graph.Scc.component.(1));
  Alcotest.(check bool) "2 and 3 together" true
    (r.Graph.Scc.component.(2) = r.Graph.Scc.component.(3));
  Alcotest.(check bool) "4 alone" true
    (r.Graph.Scc.component.(4) <> r.Graph.Scc.component.(3));
  (* Reverse topological order: an edge from component a to b has a > b. *)
  Alcotest.(check bool) "topological numbering" true
    (r.Graph.Scc.component.(0) > r.Graph.Scc.component.(2)
     && r.Graph.Scc.component.(2) > r.Graph.Scc.component.(4));
  Alcotest.(check (list int)) "bottoms are the sink singleton"
    [ r.Graph.Scc.component.(4) ]
    (Graph.Scc.bottom_components g r)

let test_scc_cycle_and_dag () =
  (* A pure cycle is a single component; a path graph has n components. *)
  let cycle = Graph.Digraph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check int) "cycle" 1 (Graph.Scc.compute cycle).Graph.Scc.count;
  let path = Graph.Digraph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let r = Graph.Scc.compute path in
  Alcotest.(check int) "path" 4 r.Graph.Scc.count;
  Alcotest.(check (list int)) "path bottom" [ r.Graph.Scc.component.(3) ]
    (Graph.Scc.bottom_components path r)

let test_scc_large_chain () =
  (* Deep recursion check: the iterative Tarjan must survive a long path. *)
  let n = 200_000 in
  let g = Graph.Digraph.of_edges n (List.init (n - 1) (fun i -> (i, i + 1))) in
  Alcotest.(check int) "long chain" n (Graph.Scc.compute g).Graph.Scc.count

let test_reach () =
  let g = scc_example () in
  let fwd = Graph.Reach.forward g [ 2 ] in
  Alcotest.(check (list bool)) "forward from 2"
    [ false; false; true; true; true ]
    (Array.to_list fwd);
  let bwd = Graph.Reach.backward g [ 4 ] in
  Alcotest.(check (list bool)) "backward from 4"
    [ true; true; true; true; true ]
    (Array.to_list bwd)

let test_constrained_reach () =
  (* 0 -> 1 -> 2 with 1 blocked: 0 cannot reach 2 through allowed states. *)
  let g = Graph.Digraph.of_edges 3 [ (0, 1); (1, 2) ] in
  let through = [| true; false; true |] in
  let targets = [| false; false; true |] in
  Alcotest.(check (list bool)) "blocked path"
    [ false; false; true ]
    (Array.to_list (Graph.Reach.backward_constrained g ~through ~targets));
  let through = [| true; true; true |] in
  Alcotest.(check (list bool)) "open path"
    [ true; true; true ]
    (Array.to_list (Graph.Reach.backward_constrained g ~through ~targets))

let test_until_prob01 () =
  (* 0 --> 1 --> goal(2); 1 --> trap(3).  phi = {0,1}, psi = {2}. *)
  let g = Graph.Digraph.of_edges 4 [ (0, 1); (1, 2); (1, 3) ] in
  let phi = [| true; true; false; false |] in
  let psi = [| false; false; true; false |] in
  let p0 = Graph.Reach.until_prob0 g ~phi ~psi in
  Alcotest.(check (list bool)) "prob0"
    [ false; false; false; true ]
    (Array.to_list p0);
  let p1 = Graph.Reach.until_prob1 g ~phi ~psi in
  (* 0 and 1 can fall into the trap, so neither is almost-sure. *)
  Alcotest.(check (list bool)) "prob1"
    [ false; false; true; false ]
    (Array.to_list p1);
  (* Removing the trap makes the until almost sure everywhere relevant. *)
  let g = Graph.Digraph.of_edges 4 [ (0, 1); (1, 2) ] in
  let p1 = Graph.Reach.until_prob1 g ~phi ~psi in
  Alcotest.(check (list bool)) "prob1 no trap"
    [ true; true; true; false ]
    (Array.to_list p1)

(* ---------------- property tests ---------------------------------- *)

let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    let* edges =
      list_size (int_range 0 20)
        (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    return (n, edges))

let prop_scc_partition =
  QCheck2.Test.make ~count:100 ~name:"scc members partition the vertices"
    gen_graph (fun (n, edges) ->
      let g = Graph.Digraph.of_edges n edges in
      let r = Graph.Scc.compute g in
      let seen = Array.make n 0 in
      Array.iter (List.iter (fun v -> seen.(v) <- seen.(v) + 1))
        r.Graph.Scc.members;
      Array.for_all (fun c -> c = 1) seen
      && Array.for_all
           (fun v -> List.mem v r.Graph.Scc.members.(r.Graph.Scc.component.(v)))
           (Array.init n Fun.id))

let prop_bottom_exists =
  QCheck2.Test.make ~count:100 ~name:"every finite graph has a bottom SCC"
    gen_graph (fun (n, edges) ->
      let g = Graph.Digraph.of_edges n edges in
      let r = Graph.Scc.compute g in
      Graph.Scc.bottom_components g r <> [])

let prop_forward_backward_dual =
  QCheck2.Test.make ~count:100 ~name:"forward on g = backward on reverse"
    gen_graph (fun (n, edges) ->
      let g = Graph.Digraph.of_edges n edges in
      let fwd = Graph.Reach.forward g [ 0 ] in
      let bwd = Graph.Reach.backward (Graph.Digraph.reverse g) [ 0 ] in
      fwd = bwd)

(* The array-backed graph against the list-and-Hashtbl reference it
   replaced (Ref_graph): the same successor order, the same reversal and
   reachability sets, and the same Tarjan numbering and member lists,
   for graphs built from edge lists (with repeats) and from sparse
   matrices (with stored zeros, which are not edges). *)
let gen_oracle_graph =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let vertex = int_range 0 (n - 1) in
    let* edges = list_size (int_range 0 40) (pair vertex vertex) in
    let* weights = list_repeat (List.length edges) (int_range 0 2) in
    let* through = array_repeat n bool in
    let* targets = array_repeat n bool in
    let* sources = list_size (int_range 0 3) vertex in
    return (n, List.combine edges weights, through, targets, sources))

let print_oracle_graph (n, edges, _, _, sources) =
  Printf.sprintf "n = %d, edges = [%s], sources = [%s]" n
    (String.concat "; "
       (List.map (fun ((u, v), w) -> Printf.sprintf "(%d, %d, %d)" u v w) edges))
    (String.concat "; " (List.map string_of_int sources))

let matches_reference g r ~through ~targets ~sources =
  let n = Graph.Digraph.n_vertices g in
  let all f = List.for_all f (List.init n Fun.id) in
  let same_successors g r =
    all (fun u -> Graph.Digraph.successors g u = Ref_graph.Digraph.successors r u)
  in
  let count, component, members = Ref_graph.Scc.compute r in
  let scc = Graph.Scc.compute g in
  n = Ref_graph.Digraph.n_vertices r
  && same_successors g r
  && same_successors (Graph.Digraph.reverse g) (Ref_graph.Digraph.reverse r)
  && Graph.Reach.forward g sources = Ref_graph.Reach.forward r sources
  && Graph.Reach.backward g sources = Ref_graph.Reach.backward r sources
  && Graph.Reach.backward_constrained g ~through ~targets
     = Ref_graph.Reach.backward_constrained r ~through ~targets
  && scc.Graph.Scc.count = count
  && scc.Graph.Scc.component = component
  && scc.Graph.Scc.members = members

let prop_matches_reference =
  QCheck2.Test.make ~count:300 ~print:print_oracle_graph
    ~name:"digraph matches the list-and-Hashtbl reference" gen_oracle_graph
    (fun (n, edges, through, targets, sources) ->
      let pairs = List.map fst edges in
      (* of_coo drops entries summing to 0; those summing to 1 become
         stored zeros, which are not edges. *)
      let matrix =
        Linalg.Csr.map
          (fun v -> if v = 1.0 then 0.0 else v)
          (Linalg.Csr.of_coo ~rows:n ~cols:n
             (List.map (fun ((u, v), w) -> (u, v, float_of_int w)) edges))
      in
      matches_reference (Graph.Digraph.of_edges n pairs)
        (Ref_graph.Digraph.of_edges n pairs) ~through ~targets ~sources
      && matches_reference (Graph.Digraph.of_csr matrix)
           (Ref_graph.Digraph.of_csr matrix) ~through ~targets ~sources)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "graph",
    [ Alcotest.test_case "digraph" `Quick test_digraph;
      Alcotest.test_case "digraph of csr" `Quick test_digraph_of_csr;
      Alcotest.test_case "scc" `Quick test_scc;
      Alcotest.test_case "scc cycle and dag" `Quick test_scc_cycle_and_dag;
      Alcotest.test_case "scc deep chain" `Quick test_scc_large_chain;
      Alcotest.test_case "reachability" `Quick test_reach;
      Alcotest.test_case "constrained reachability" `Quick
        test_constrained_reach;
      Alcotest.test_case "until prob 0/1" `Quick test_until_prob01;
      q prop_scc_partition;
      q prop_bottom_exists;
      q prop_forward_backward_dual;
      q prop_matches_reference ] )
