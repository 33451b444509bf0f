(* Interned states live in id-indexed arrays that grow by doubling and
   are never shrunk.  Ids are assigned densely in discovery order, which
   is what makes every downstream iteration deterministic.

   The id table is open-addressed with linear probing: a power-of-two
   array of slots holding [id + 1] (0 = empty), at most half full. *)

type t = {
  succ : Succ.t;
  width : int;
  buf : Succ.buffer;                 (* refilled by every expansion *)
  mutable slots : int array;         (* id + 1, 0 = empty *)
  mutable states : Succ.state array; (* id -> valuation, the one copy *)
  mutable rewards : float array;     (* id -> rho *)
  mutable sids : int array array;    (* id -> successor ids *)
  mutable srates : float array array;  (* id -> successor rates *)
  mutable expanded : bool array;
  mutable n : int;
  mutable n_expanded : int;
  mutable n_transitions : int;
}

let hash_cells (cells : int array) off width =
  let h = ref width in
  for i = off to off + width - 1 do
    let x = (!h lxor cells.(i)) * 0x2545F4914F6CDD1D in
    h := x lxor (x lsr 29)
  done;
  !h

let grow t =
  let cap' = 2 * Array.length t.expanded in
  let extend a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.states <- extend t.states [||];
  t.rewards <- extend t.rewards 0.0;
  t.sids <- extend t.sids [||];
  t.srates <- extend t.srates [||];
  t.expanded <- extend t.expanded false

(* The slot of the valuation at [cells.(off)..], or the empty slot where
   it belongs. *)
let probe t cells off h =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) in
  while
    let e = slots.(!i) in
    e <> 0 && not (Succ.equal_cells t.states.(e - 1) 0 cells off t.width)
  do
    i := (!i + 1) land mask
  done;
  !i

let rehash t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  let mask = Array.length slots - 1 in
  for id = 0 to t.n - 1 do
    let i = ref (hash_cells t.states.(id) 0 t.width land mask) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- id + 1
  done;
  t.slots <- slots

let intern_cells t cells off =
  let h = hash_cells cells off t.width in
  let slot = probe t cells off h in
  let e = t.slots.(slot) in
  if e <> 0 then e - 1
  else begin
    let s = Array.sub cells off t.width in
    (* The reward is evaluated and checked before anything is recorded,
       so a model error leaves the space as it was. *)
    let rho = t.succ.Succ.reward s in
    if not (rho >= 0.0 && Float.is_finite rho) then
      invalid_arg
        (Printf.sprintf "Space: state %s has reward %g (must be finite, >= 0)"
           (Succ.describe t.succ s) rho);
    let id = t.n in
    if id >= Array.length t.expanded then grow t;
    t.states.(id) <- s;
    t.rewards.(id) <- rho;
    t.n <- id + 1;
    t.slots.(slot) <- id + 1;
    if 2 * t.n > Array.length t.slots then rehash t;
    id
  end

let intern t s =
  if Array.length s <> t.width then
    invalid_arg
      (Printf.sprintf "Space.intern: valuation has %d cells, the model %d"
         (Array.length s) t.width);
  intern_cells t s 0

let create succ =
  let width = Array.length succ.Succ.initial in
  let cap = 64 in
  let t =
    { succ; width; buf = Succ.buffer ~width; slots = Array.make (2 * cap) 0;
      states = Array.make cap [||]; rewards = Array.make cap 0.0;
      sids = Array.make cap [||]; srates = Array.make cap [||];
      expanded = Array.make cap false; n = 0; n_expanded = 0;
      n_transitions = 0 }
  in
  ignore (intern t succ.Succ.initial : int);
  t

let model t = t.succ
let state t id = t.states.(id)
let n_states t = t.n
let n_expanded t = t.n_expanded
let n_transitions t = t.n_transitions
let reward t id = t.rewards.(id)

let expand t id =
  if not t.expanded.(id) then begin
    let buf = t.buf in
    t.succ.Succ.successors t.states.(id) buf;
    let k = buf.Succ.count in
    let ids = Array.make k 0 and rates = Array.sub buf.Succ.rates 0 k in
    for i = 0 to k - 1 do
      let rate = rates.(i) in
      if not (rate > 0.0 && Float.is_finite rate) then
        invalid_arg
          (Printf.sprintf
             "Space: transition out of %s has rate %g (must be finite, > 0)"
             (Succ.describe t.succ t.states.(id)) rate);
      ids.(i) <- intern_cells t buf.Succ.targets (i * t.width)
    done;
    (* [intern_cells] may have grown the arrays; write through the record. *)
    t.sids.(id) <- ids;
    t.srates.(id) <- rates;
    t.expanded.(id) <- true;
    t.n_expanded <- t.n_expanded + 1;
    t.n_transitions <- t.n_transitions + k
  end

let succ_ids t id = expand t id; t.sids.(id)
let succ_rates t id = expand t id; t.srates.(id)
let rewards t = t.rewards

let close ?(limit = 1_000_000) t =
  let rec loop id =
    if t.n > limit then Error t.n
    else if id >= t.n then Ok ()
    else begin
      expand t id;
      loop (id + 1)
    end
  in
  loop 0
