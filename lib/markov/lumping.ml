type t = {
  quotient : Mrm.t;
  labeling : Labeling.t;
  block_of_state : int array;
  n_blocks : int;
  representative : int array;
}

(* Aggregate rates are compared through a short canonical rendering: the
   models this is meant for (symmetric pools of identical components)
   produce identical aggregates up to floating-point association order,
   which 12 significant digits absorb.  A token is a small int standing
   for one rendering; the rendering is computed once per distinct bit
   pattern, so equal tokens mean exactly equal renderings and a
   refinement round formats no rate it has met before. *)
type tokens = {
  of_bits : (int64, int) Hashtbl.t;
  of_text : (string, int) Hashtbl.t;
}

let token tokens rate =
  let bits = Int64.bits_of_float rate in
  match Hashtbl.find tokens.of_bits bits with
  | id -> id
  | exception Not_found ->
    let text = Printf.sprintf "%.12g" rate in
    let id =
      match Hashtbl.find tokens.of_text text with
      | id -> id
      | exception Not_found ->
        let id = Hashtbl.length tokens.of_text in
        Hashtbl.add tokens.of_text text id;
        id
    in
    Hashtbl.add tokens.of_bits bits id;
    id

(* Keys are int arrays, hashed over every element. *)
module Keys = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) = a = b

  let hash (a : t) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := (!h * 65599) + a.(i)
    done;
    !h land max_int
end)

(* Blocks numbered by first occurrence in state order: states with equal
   keys share a block. *)
let number n key_of_state =
  let table = Keys.create 64 in
  let blocks = Array.make n 0 in
  let count = ref 0 in
  for s = 0 to n - 1 do
    let key = key_of_state s in
    match Keys.find table key with
    | b -> blocks.(s) <- b
    | exception Not_found ->
      Keys.add table key !count;
      blocks.(s) <- !count;
      incr count
  done;
  (blocks, !count)

(* State s's key in a refinement round: its own block, then the
   (block, token of the aggregate rate into it) pairs by ascending
   block.  Each aggregate adds the row's rates in stored (ascending
   column) order from 0.0.  [sum], [owner] and [touched] are
   caller-owned scratch: the running aggregate per block, the last state
   that touched each block, and the blocks state s touches. *)
let signature ~tokens ~rates ~block_of_state ~sum ~owner ~touched s =
  let rp = Linalg.Csr.row_pointers rates and ci = Linalg.Csr.col_indices rates in
  let values = Linalg.Csr.values rates in
  let k = ref 0 in
  for p = Int32.to_int rp.{s} to Int32.to_int rp.{s + 1} - 1 do
    let b = block_of_state.(Int32.to_int ci.{p}) in
    if owner.(b) <> s then begin
      owner.(b) <- s;
      sum.(b) <- 0.0 +. values.{p};
      touched.(!k) <- b;
      incr k
    end
    else sum.(b) <- sum.(b) +. values.{p}
  done;
  let blocks = Array.sub touched 0 !k in
  Array.sort Int.compare blocks;
  let key = Array.make ((2 * !k) + 1) block_of_state.(s) in
  for j = 0 to !k - 1 do
    key.((2 * j) + 1) <- blocks.(j);
    key.((2 * j) + 2) <- token tokens sum.(blocks.(j))
  done;
  key

let compute mrm labeling =
  if Mrm.has_impulses mrm then
    invalid_arg "Lumping.compute: impulse rewards are not supported";
  let n = Mrm.n_states mrm in
  if Labeling.n_states labeling <> n then
    invalid_arg "Lumping.compute: labeling size mismatch";
  let chain = Mrm.ctmc mrm in
  let rates = Ctmc.rates chain in
  let tokens = { of_bits = Hashtbl.create 64; of_text = Hashtbl.create 64 } in
  (* Initial partition: (label set, reward); a label set is numbered by
     its sorted names joined with ';'. *)
  let label_sets = Hashtbl.create 16 in
  let label_set s =
    let text = String.concat ";" (Labeling.labels_of_state labeling s) in
    match Hashtbl.find label_sets text with
    | id -> id
    | exception Not_found ->
      let id = Hashtbl.length label_sets in
      Hashtbl.add label_sets text id;
      id
  in
  let blocks =
    ref
      (number n (fun s ->
           [| label_set s; token tokens (Mrm.reward mrm s) |]))
  in
  let sum = Array.make n 0.0 and owner = Array.make n (-1) in
  let touched = Array.make n 0 in
  let stable = ref false in
  while not !stable do
    let block_of_state, count = !blocks in
    Array.fill owner 0 n (-1);
    let refined =
      number n
        (signature ~tokens ~rates ~block_of_state ~sum ~owner ~touched)
    in
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
  let rewards =
    Array.map (fun s -> Mrm.reward mrm s) representative
  in
  let quotient = Mrm.of_transitions ~n:n_blocks !triples ~rewards in
  let labeling = Labeling.restrict labeling ~keep:block_of_state in
  { quotient; labeling; block_of_state; n_blocks; representative }

let lift l v =
  if Linalg.Vec.length v <> Array.length l.block_of_state then
    invalid_arg "Lumping.lift: length mismatch";
  let out = Linalg.Vec.create l.n_blocks in
  Array.iteri (fun s b -> out.{b} <- out.{b} +. v.{s}) l.block_of_state;
  out

let lower l w =
  if Linalg.Vec.length w <> l.n_blocks then
    invalid_arg "Lumping.lower: length mismatch";
  Linalg.Vec.init (Array.length l.block_of_state) (fun s ->
      w.{l.block_of_state.(s)})
