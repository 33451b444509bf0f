type state = int array

type buffer = {
  width : int;
  mutable targets : int array;
  mutable rates : float array;
  mutable count : int;
}

let buffer ~width =
  if width < 0 then invalid_arg "Succ.buffer: negative width";
  { width; targets = Array.make (8 * width) 0; rates = Array.make 8 0.0;
    count = 0 }

let candidate b =
  let k = b.count in
  if k >= Array.length b.rates then begin
    let cap = 2 * k in
    let targets = Array.make (cap * b.width) 0 in
    Array.blit b.targets 0 targets 0 (k * b.width);
    b.targets <- targets;
    let rates = Array.make cap 0.0 in
    Array.blit b.rates 0 rates 0 k;
    b.rates <- rates
  end;
  k * b.width

let equal_cells (a : int array) i (b : int array) j width =
  let k = ref 0 in
  while !k < width && a.(i + !k) = b.(j + !k) do
    incr k
  done;
  !k = width

let add b (s : state) rate =
  let width = b.width and cells = b.targets and k = b.count in
  let off = k * width in
  if not (equal_cells cells off s 0 width) then begin
    let j = ref 0 in
    while !j < k && not (equal_cells cells (!j * width) cells off width) do
      incr j
    done;
    if !j < k then b.rates.(!j) <- b.rates.(!j) +. rate
    else begin
      b.rates.(k) <- rate;
      b.count <- k + 1
    end
  end

type t = {
  var_names : string array;
  initial : state;
  successors : state -> buffer -> unit;
  reward : state -> float;
  propositions : string list;
  holds : state -> string -> bool;
}

let describe t s =
  String.concat ","
    (List.init (Array.length s) (fun i ->
         Printf.sprintf "%s=%d" t.var_names.(i) s.(i)))

let of_mrm mrm labeling ~init =
  if Markov.Mrm.has_impulses mrm then
    invalid_arg "Succ.of_mrm: impulse rewards have no successor form";
  let chain = Markov.Mrm.ctmc mrm in
  let n = Markov.Ctmc.n_states chain in
  if init < 0 || init >= n then invalid_arg "Succ.of_mrm: bad initial state";
  let rates = Markov.Ctmc.rates chain in
  let first : Linalg.Csr.index_array = Linalg.Csr.row_pointers rates in
  let cols : Linalg.Csr.index_array = Linalg.Csr.col_indices rates in
  let values : Linalg.Vec.t = Linalg.Csr.values rates in
  { var_names = [| "s" |];
    initial = [| init |];
    successors =
      (fun s buf ->
        buf.count <- 0;
        let src = s.(0) in
        for p = Int32.to_int first.{src} to Int32.to_int first.{src + 1} - 1 do
          let j = Int32.to_int cols.{p} and rate = values.{p} in
          (* CSR rows hold distinct columns: append without merging. *)
          if j <> src && rate <> 0.0 then begin
            let off = candidate buf in
            buf.targets.(off) <- j;
            buf.rates.(buf.count) <- rate;
            buf.count <- buf.count + 1
          end
        done);
    reward = (fun s -> Markov.Mrm.reward mrm s.(0));
    propositions = Markov.Labeling.propositions labeling;
    holds = (fun s a -> Markov.Labeling.holds labeling a s.(0)) }
