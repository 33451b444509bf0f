type t = {
  n : int;
  row_ptr : int array;        (* length n + 1 *)
  cols : int array;           (* length nnz, ascending within a row *)
  rate_lo : float array;      (* length nnz *)
  rate_hi : float array;      (* length nnz *)
  reward_lo : float array;    (* length n *)
  reward_hi : float array;    (* length n *)
  source : Markov.Mrm.t option;
      (* the exact point model when built by [point]/[of_mrm] with zero
         drift — kept so zero-width checks run the precise engines on
         the very same value, bit for bit *)
}

(* [what] names the entry; it is only formatted when the check fails,
   so validating a large model builds no strings. *)
let check_interval what lo hi =
  if
    (not (Float.is_finite lo)) || (not (Float.is_finite hi))
    || lo < 0.0 || lo > hi
  then
    invalid_arg
      (Printf.sprintf "Imrm: %s needs 0 <= lo <= hi (finite), got [%g, %g]"
         (what ()) lo hi)

let make ~n ~transitions ~rewards =
  if n <= 0 then invalid_arg "Imrm.make: n must be positive";
  if Array.length rewards <> n then
    invalid_arg "Imrm.make: rewards length must equal the state count";
  Array.iteri
    (fun s (lo, hi) ->
      check_interval (fun () -> Printf.sprintf "reward of state %d" s) lo hi)
    rewards;
  let kept =
    List.filter
      (fun (s, s', lo, hi) ->
        if s < 0 || s >= n || s' < 0 || s' >= n then
          invalid_arg
            (Printf.sprintf "Imrm.make: transition %d -> %d out of range" s s');
        if s = s' then
          invalid_arg
            (Printf.sprintf "Imrm.make: self-loop on state %d" s);
        check_interval (fun () -> Printf.sprintf "rate %d -> %d" s s') lo hi;
        hi > 0.0)
      transitions
  in
  let sorted =
    List.sort
      (fun ((a : int), (a' : int), _, _) (b, b', _, _) ->
        if a <> b then Int.compare a b else Int.compare a' b')
      kept
  in
  let rec check_dups = function
    | (a, a', _, _) :: ((b, b', _, _) :: _ as rest) ->
      if a = b && a' = b' then
        invalid_arg
          (Printf.sprintf "Imrm.make: duplicate transition %d -> %d" a a');
      check_dups rest
    | _ -> ()
  in
  check_dups sorted;
  let nnz = List.length sorted in
  let row_ptr = Array.make (n + 1) 0
  and cols = Array.make nnz 0
  and rate_lo = Array.make nnz 0.0
  and rate_hi = Array.make nnz 0.0 in
  List.iteri
    (fun i (s, s', lo, hi) ->
      row_ptr.(s + 1) <- row_ptr.(s + 1) + 1;
      cols.(i) <- s';
      rate_lo.(i) <- lo;
      rate_hi.(i) <- hi)
    sorted;
  for s = 0 to n - 1 do
    row_ptr.(s + 1) <- row_ptr.(s) + row_ptr.(s + 1)
  done;
  { n;
    row_ptr;
    cols;
    rate_lo;
    rate_hi;
    reward_lo = Array.map fst rewards;
    reward_hi = Array.map snd rewards;
    source = None }

let reject_impulses what m =
  if Markov.Mrm.has_impulses m then
    invalid_arg
      (what
     ^ ": impulse rewards are not supported by the robust engine (its \
        capability flags say so); strip them or use a precise engine")

let intervals_of_mrm ~rate_drift ~reward_drift m =
  let chain = Markov.Mrm.ctmc m in
  let n = Markov.Ctmc.n_states chain in
  let transitions = ref [] in
  for s = n - 1 downto 0 do
    Linalg.Csr.iter_row (Markov.Ctmc.rates chain) s (fun s' r ->
        if s <> s' && r > 0.0 then
          transitions :=
            (s, s', r *. (1.0 -. rate_drift), r *. (1.0 +. rate_drift))
            :: !transitions)
  done;
  let rewards =
    Array.init n (fun s ->
        let rho = Markov.Mrm.reward m s in
        (rho *. (1.0 -. reward_drift), rho *. (1.0 +. reward_drift)))
  in
  make ~n ~transitions:!transitions ~rewards

let point m =
  reject_impulses "Imrm.point" m;
  let t = intervals_of_mrm ~rate_drift:0.0 ~reward_drift:0.0 m in
  { t with source = Some m }

let check_drift what d =
  if (not (Float.is_finite d)) || d < 0.0 || d >= 1.0 then
    invalid_arg
      (Printf.sprintf "Imrm.of_mrm: %s must lie in [0, 1), got %g" what d)

let of_mrm ?reward_drift ~rate_drift m =
  reject_impulses "Imrm.of_mrm" m;
  let reward_drift = Option.value reward_drift ~default:rate_drift in
  check_drift "rate drift" rate_drift;
  check_drift "reward drift" reward_drift;
  let t = intervals_of_mrm ~rate_drift ~reward_drift m in
  if rate_drift = 0.0 && reward_drift = 0.0 then { t with source = Some m }
  else t

let n_states t = t.n
let n_transitions t = Array.length t.cols

let max_width t =
  let w = ref 0.0 in
  Array.iteri (fun i lo -> w := Float.max !w (t.rate_hi.(i) -. lo)) t.rate_lo;
  Array.iteri
    (fun s lo -> w := Float.max !w (t.reward_hi.(s) -. lo))
    t.reward_lo;
  !w

let is_point t = t.source <> None || max_width t = 0.0
let reward_lo t s = t.reward_lo.(s)
let reward_hi t s = t.reward_hi.(s)
let max_reward_hi t = Array.fold_left Float.max 0.0 t.reward_hi

let exit_hi t s =
  let acc = ref 0.0 in
  for p = t.row_ptr.(s) to t.row_ptr.(s + 1) - 1 do
    acc := !acc +. t.rate_hi.(p)
  done;
  !acc

let max_exit_hi t =
  let m = ref 0.0 in
  for s = 0 to t.n - 1 do
    m := Float.max !m (exit_hi t s)
  done;
  !m

let iter_row t s f =
  for p = t.row_ptr.(s) to t.row_ptr.(s + 1) - 1 do
    f t.cols.(p) t.rate_lo.(p) t.rate_hi.(p)
  done

let row_start t s = t.row_ptr.(s)
let row_stop t s = t.row_ptr.(s + 1)
let col_at t p = t.cols.(p)
let rate_lo_at t p = t.rate_lo.(p)
let rate_hi_at t p = t.rate_hi.(p)

let realise pick t =
  let check lo hi v =
    if not (lo <= v && v <= hi) then
      invalid_arg
        (Printf.sprintf "Imrm.realise: pick returned %g outside [%g, %g]" v lo
           hi);
    v
  in
  let transitions = ref [] in
  for s = t.n - 1 downto 0 do
    for p = t.row_ptr.(s + 1) - 1 downto t.row_ptr.(s) do
      let r = check t.rate_lo.(p) t.rate_hi.(p) (pick t.rate_lo.(p) t.rate_hi.(p)) in
      if r > 0.0 then transitions := (s, t.cols.(p), r) :: !transitions
    done
  done;
  let rewards =
    Array.init t.n (fun s ->
        check t.reward_lo.(s) t.reward_hi.(s)
          (pick t.reward_lo.(s) t.reward_hi.(s)))
  in
  Markov.Mrm.make (Markov.Ctmc.of_transitions ~n:t.n !transitions) ~rewards

let point_model t =
  match t.source with
  | Some m -> m
  | None ->
    if max_width t > 0.0 then
      invalid_arg "Imrm.point_model: the model has non-degenerate intervals";
    realise (fun lo _ -> lo) t

let midpoint t = realise (fun lo hi -> 0.5 *. (lo +. hi)) t

let sample rng t =
  realise
    (fun lo hi ->
      if hi > lo then lo +. ((hi -. lo) *. Random.State.float rng 1.0) else lo)
    t

let pp ppf t =
  Format.fprintf ppf "imrm: %d states, %d rate intervals, max width %g" t.n
    (n_transitions t) (max_width t)
