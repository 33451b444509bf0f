(* Reference oracle for Markov.Lumping: the earlier string-signature
   partition refinement, kept verbatim so the property tests in
   test_lumping.ml can compare the integer-keyed code against it.  Each
   round renders every aggregate rate with %.12g and compares whole
   signature strings. *)

open Markov

let rate_token rate = Printf.sprintf "%.12g" rate

let signature ~block_of_state chain s =
  let per_block = Hashtbl.create 8 in
  Linalg.Csr.iter_row (Ctmc.rates chain) s (fun s' rate ->
      let b = block_of_state.(s') in
      let prior = Option.value ~default:0.0 (Hashtbl.find_opt per_block b) in
      Hashtbl.replace per_block b (prior +. rate));
  Hashtbl.fold (fun b rate acc -> (b, rate_token rate) :: acc) per_block []
  |> List.sort compare
  |> List.map (fun (b, tok) -> Printf.sprintf "%d:%s" b tok)
  |> String.concat ","

let compute mrm labeling : Lumping.t =
  let n = Mrm.n_states mrm in
  let chain = Mrm.ctmc mrm in
  let assign keys =
    let table = Hashtbl.create 16 in
    let blocks = Array.make n (-1) in
    let count = ref 0 in
    Array.iteri
      (fun s key ->
        match Hashtbl.find_opt table key with
        | Some b -> blocks.(s) <- b
        | None ->
          Hashtbl.add table key !count;
          blocks.(s) <- !count;
          incr count)
      keys;
    (blocks, !count)
  in
  let initial_keys =
    Array.init n (fun s ->
        Printf.sprintf "%s|%.12g"
          (String.concat ";" (Labeling.labels_of_state labeling s))
          (Mrm.reward mrm s))
  in
  let blocks = ref (assign initial_keys) in
  let stable = ref false in
  while not !stable do
    let block_of_state, count = !blocks in
    let keys =
      Array.init n (fun s ->
          Printf.sprintf "%d|%s" block_of_state.(s)
            (signature ~block_of_state chain s))
    in
    let refined = assign keys in
    if snd refined = count then stable := true else blocks := refined
  done;
  let block_of_state, n_blocks = !blocks in
  let representative = Array.make n_blocks (-1) in
  for s = n - 1 downto 0 do
    representative.(block_of_state.(s)) <- s
  done;
  let triples = ref [] in
  Array.iteri
    (fun b s ->
      let per_block = Hashtbl.create 8 in
      Linalg.Csr.iter_row (Ctmc.rates chain) s (fun s' rate ->
          let c = block_of_state.(s') in
          let prior = Option.value ~default:0.0 (Hashtbl.find_opt per_block c) in
          Hashtbl.replace per_block c (prior +. rate));
      Hashtbl.iter (fun c rate -> triples := (b, c, rate) :: !triples) per_block)
    representative;
  let rewards = Array.map (fun s -> Mrm.reward mrm s) representative in
  let quotient = Mrm.of_transitions ~n:n_blocks !triples ~rewards in
  let labeling = Labeling.restrict labeling ~keep:block_of_state in
  { Lumping.quotient; labeling; block_of_state; n_blocks; representative }
