type detail = {
  probability : float;
  steps : int;
  band : int;
  x : float;
  transient_mass : float;
  tail_mass : float;
}

(* The core computes, for every layer n = 0..N and every band h, the
   vectors c(h,n,k) = C(h,n,k) . G where G is an |S| x w block of
   right-hand-side columns (w = 1 for the solvers, w = |S| with G = I for
   the full matrix).  One recursion lives in three flat, state-major
   float arrays — one per layer parity plus one for the products P . c —
   with entry (state i, band h, k, column col) at

     ((i * m + h - 1) * (N + 1) + k) * w + col

   so everything one state needs in a layer is one contiguous slice.  The
   uniformised matrix is copied into plain arrays once per solve: the
   inner loops index them directly (a cross-module accessor would box
   its float result). *)

type context = {
  n_states : int;
  width : int;                       (* number of right-hand-side columns *)
  n_bands : int;                     (* m *)
  levels : float array;              (* rho_0 = 0 < ... < rho_m *)
  level_of_state : int array;        (* index of rho(s) in levels *)
  row_ptr : int array;               (* uniformised DTMC, CSR *)
  cols : int array;
  probs : float array;
  pool : Parallel.Pool.t;
  cancel : Numerics.Cancel.t option;
}

(* A state's share of a layer is w multiply-adds per stored entry and
   (band, k) pair, so a modest number of states already carries enough
   work to dispatch. *)
let block_row_cutoff = 16

(* Offset of c(h, n, k) at state i, column 0, in a store of [max_layer]. *)
let offset ctx ~max_layer i h k =
  ((((i * ctx.n_bands) + h - 1) * (max_layer + 1)) + k) * ctx.width

(* log n! for n = 0..max_layer, computed once per solve: the binomial
   weights are evaluated for every (layer, k) cell, and the per-cell
   [Special.log_binomial] calls (three boxed-float returns each, plus the
   Lanczos evaluation past the factorial memo) dominated the allocation
   profile of the whole recursion.  The table holds exactly the values
   [Special.log_factorial] returns, so results are unchanged. *)
let log_factorial_table max_layer =
  Array.init (max_layer + 1) Numerics.Special.log_factorial

(* Binomial(n, x) probabilities for k = 0..n written into [bin] (length
   >= n + 1, preallocated by the caller once for the whole series), in log
   space so that large n and extreme x do not underflow prematurely.
   [lf] is the caller's {!log_factorial_table}; the subtraction order
   matches [Special.log_binomial], so each weight is bit-identical to the
   direct call. *)
let binomial_pmf_into ~lf bin n x =
  if x <= 0.0 then
    for k = 0 to n do
      bin.(k) <- (if k = 0 then 1.0 else 0.0)
    done
  else if x >= 1.0 then
    for k = 0 to n do
      bin.(k) <- (if k = n then 1.0 else 0.0)
    done
  else begin
    let log_x = Float.log x and log_1x = Float.log (1.0 -. x) in
    let lfn = Array.unsafe_get lf n in
    for k = 0 to n do
      bin.(k) <-
        Float.exp
          (lfn -. Array.unsafe_get lf k -. Array.unsafe_get lf (n - k)
          +. (float_of_int k *. log_x)
          +. (float_of_int (n - k) *. log_1x))
    done
  end

(* One solve's recursion: its stores, the offsets the kernel reads and
   the layer being computed.  [c(h, layer, k)] lives in
   [store.(layer land 1)] at {!offset} and [P^layer . G] in
   [pngs.(layer land 1)] at [i * w + col]; [pc] holds the products
   P . c(h, layer - 1, k).  The pool's body is one closure over this
   record for the whole solve, so a layer allocates nothing. *)
type sweep = {
  ctx : context;
  stride_h : int;              (* (N + 1) * w: one band of one state *)
  entry_base : int array;      (* stored entry p: its column's first cell *)
  store : float array array;
  pc : float array;
  pngs : float array array;
  mutable layer : int;
}

(* pc(i, h, x) += the stored entries pos .. pos + count - 1 of row i
   (count <= 4) times c(h, layer - 1, x) of their columns, for every
   band h and x < span.  Each element is read once, its terms are added
   in a register and it is written once: (((pc + v1 x1) + v2 x2) + v3 x3)
   + v4 x4 rounds after every addition, in ascending entry order, so an
   element's value does not depend on how its row is cut into chunks. *)
let add_entries s ~prev ~dst ~span ~pos ~count =
  let m = s.ctx.n_bands and stride_h = s.stride_h and pc = s.pc in
  let probs = s.ctx.probs and eb = s.entry_base in
  let v1 = Array.unsafe_get probs pos and e1 = Array.unsafe_get eb pos in
  match count with
  | 1 ->
    for h = 0 to m - 1 do
      let d = dst + (h * stride_h) and a1 = e1 + (h * stride_h) in
      for x = 0 to span - 1 do
        Array.unsafe_set pc (d + x)
          (Array.unsafe_get pc (d + x)
          +. (v1 *. Array.unsafe_get prev (a1 + x)))
      done
    done
  | 2 ->
    let v2 = Array.unsafe_get probs (pos + 1)
    and e2 = Array.unsafe_get eb (pos + 1) in
    for h = 0 to m - 1 do
      let off = h * stride_h in
      let d = dst + off and a1 = e1 + off and a2 = e2 + off in
      for x = 0 to span - 1 do
        Array.unsafe_set pc (d + x)
          (Array.unsafe_get pc (d + x)
          +. (v1 *. Array.unsafe_get prev (a1 + x))
          +. (v2 *. Array.unsafe_get prev (a2 + x)))
      done
    done
  | 3 ->
    let v2 = Array.unsafe_get probs (pos + 1)
    and e2 = Array.unsafe_get eb (pos + 1) in
    let v3 = Array.unsafe_get probs (pos + 2)
    and e3 = Array.unsafe_get eb (pos + 2) in
    for h = 0 to m - 1 do
      let off = h * stride_h in
      let d = dst + off and a1 = e1 + off and a2 = e2 + off
      and a3 = e3 + off in
      for x = 0 to span - 1 do
        Array.unsafe_set pc (d + x)
          (Array.unsafe_get pc (d + x)
          +. (v1 *. Array.unsafe_get prev (a1 + x))
          +. (v2 *. Array.unsafe_get prev (a2 + x))
          +. (v3 *. Array.unsafe_get prev (a3 + x)))
      done
    done
  | _ ->
    let v2 = Array.unsafe_get probs (pos + 1)
    and e2 = Array.unsafe_get eb (pos + 1) in
    let v3 = Array.unsafe_get probs (pos + 2)
    and e3 = Array.unsafe_get eb (pos + 2) in
    let v4 = Array.unsafe_get probs (pos + 3)
    and e4 = Array.unsafe_get eb (pos + 3) in
    for h = 0 to m - 1 do
      let off = h * stride_h in
      let d = dst + off and a1 = e1 + off and a2 = e2 + off
      and a3 = e3 + off and a4 = e4 + off in
      for x = 0 to span - 1 do
        Array.unsafe_set pc (d + x)
          (Array.unsafe_get pc (d + x)
          +. (v1 *. Array.unsafe_get prev (a1 + x))
          +. (v2 *. Array.unsafe_get prev (a2 + x))
          +. (v3 *. Array.unsafe_get prev (a3 + x))
          +. (v4 *. Array.unsafe_get prev (a4 + x)))
      done
    done

(* One layer at state i: the products P . c(h, layer-1, k) and
   P^layer . G of row i, then its band interpolation.  Every element of a
   product starts from 0.0 and adds the row's stored entries in ascending
   order; the interpolation reads and writes state i only (the
   cross-band bases cur(h-1, layer) and cur(h+1, 0) are at state i too),
   each column's k-chain in its fixed order with the value just written
   carried in a register.  States therefore partition the layer: each
   cell is written once, by the same expression, whichever domain runs
   the state. *)
let layer_at_state s i =
  let ctx = s.ctx and layer = s.layer and stride_h = s.stride_h in
  let w = ctx.width and m = ctx.n_bands in
  let prev = s.store.((layer + 1) land 1) and cur = s.store.(layer land 1) in
  let png_prev = s.pngs.((layer + 1) land 1) and png = s.pngs.(layer land 1) in
  let pc = s.pc in
  let base_i = i * m * stride_h in
  let span = layer * w in
  let start = ctx.row_ptr.(i) and stop = ctx.row_ptr.(i + 1) in
  (* png <- P png, row i. *)
  let png_off = i * w in
  Array.fill png png_off w 0.0;
  for pos = start to stop - 1 do
    let v = Array.unsafe_get ctx.probs pos in
    let src = Array.unsafe_get ctx.cols pos * w in
    for col = 0 to w - 1 do
      Array.unsafe_set png (png_off + col)
        (Array.unsafe_get png (png_off + col)
        +. (v *. Array.unsafe_get png_prev (src + col)))
    done
  done;
  (* pc(h, k) <- P . c(h, layer-1, k), row i, for k < layer: zero the
     slices, then add the row's entries four at a time. *)
  for h = 0 to m - 1 do
    Array.fill pc (base_i + (h * stride_h)) span 0.0
  done;
  let pos = ref start in
  while !pos < stop do
    let count = Int.min 4 (stop - !pos) in
    add_entries s ~prev ~dst:base_i ~span ~pos:!pos ~count;
    pos := !pos + count
  done;
  let li = ctx.level_of_state.(i) in
  let rho_i = ctx.levels.(li) in
  (* Ascending pass: bands h <= l(i) (rho_i >= rho_h), k = 0 .. layer. *)
  for h = 1 to li do
    let denom = rho_i -. ctx.levels.(h - 1) in
    let a = (rho_i -. ctx.levels.(h)) /. denom in
    let b = (ctx.levels.(h) -. ctx.levels.(h - 1)) /. denom in
    let band = base_i + ((h - 1) * stride_h) in
    (* base k = 0: P^layer G for the first band, else the layer's last
       entry of the band below. *)
    if h = 1 then Array.blit png png_off cur band w
    else Array.blit cur (band - stride_h + span) cur band w;
    for col = 0 to w - 1 do
      (* [at] is c(h, layer, k - 1)'s cell, whose value [run] holds. *)
      let at = ref (band + col) in
      let run = ref (Array.unsafe_get cur !at) in
      for _ = 1 to layer do
        let next = (a *. !run) +. (b *. Array.unsafe_get pc !at) in
        at := !at + w;
        Array.unsafe_set cur !at next;
        run := next
      done
    done
  done;
  (* Descending pass: bands h > l(i) (rho_i <= rho_{h-1}),
     k = layer .. 0. *)
  for h = m downto li + 1 do
    let denom = ctx.levels.(h) -. rho_i in
    let a = (ctx.levels.(h - 1) -. rho_i) /. denom in
    let b = (ctx.levels.(h) -. ctx.levels.(h - 1)) /. denom in
    let band = base_i + ((h - 1) * stride_h) in
    (* base k = layer: zero for the top band, else the first entry of
       the band above. *)
    if h = m then Array.fill cur (band + span) w 0.0
    else Array.blit cur (band + stride_h) cur (band + span) w;
    for col = 0 to w - 1 do
      (* [at] is c(h, layer, k + 1)'s cell, whose value [run] holds. *)
      let at = ref (band + span + col) in
      let run = ref (Array.unsafe_get cur !at) in
      for _ = 1 to layer do
        at := !at - w;
        let next = (a *. !run) +. (b *. Array.unsafe_get pc !at) in
        Array.unsafe_set cur !at next;
        run := next
      done
    done
  done

(* Runs the layered recursion, feeding each completed layer to [consume
   layer cur png]: [cur] holds c(h, layer, k) at {!offset}, and [png] is
   P^layer . G (entry (i, col) at [i * w + col]).  Both arrays are reused
   by later layers, so the consumer must not keep them. *)
let run_layers ctx ~g ~max_layer ~consume =
  let n = ctx.n_states and w = ctx.width and m = ctx.n_bands in
  let stride_h = (max_layer + 1) * w in
  let size = n * m * stride_h in
  let s =
    { ctx; stride_h;
      entry_base = Array.map (fun j -> j * m * stride_h) ctx.cols;
      store = [| Array.make size 0.0; Array.make size 0.0 |];
      pc = Array.make size 0.0;
      pngs = [| Array.copy g; Array.make (n * w) 0.0 |];
      layer = 0 }
  in
  (* Layer 0: c(h,0,0)_i = g_i if rho_i >= rho_h else 0. *)
  let cur = s.store.(0) in
  for i = 0 to n - 1 do
    for h = 1 to ctx.level_of_state.(i) do
      Array.blit g (i * w) cur (offset ctx ~max_layer i h 0) w
    done
  done;
  consume 0 cur s.pngs.(0);
  let states lo hi =
    for i = lo to hi - 1 do
      layer_at_state s i
    done
  in
  for layer = 1 to max_layer do
    Numerics.Cancel.check ctx.cancel;
    s.layer <- layer;
    Parallel.Pool.parallel_for ~cutoff:block_row_cutoff ctx.pool ~lo:0 ~hi:n
      states;
    consume layer s.store.(layer land 1) s.pngs.(layer land 1)
  done

let make_context ?(pool = Parallel.Pool.sequential) ?cancel mrm ~width =
  let chain = Markov.Mrm.ctmc mrm in
  let n = Markov.Mrm.n_states mrm in
  let levels = Markov.Mrm.reward_levels mrm in
  let level_of_state =
    (* [levels] is sorted strictly increasing and contains every reward
       value, so a binary search always lands exactly. *)
    Array.init n (fun s ->
        let rho = Markov.Mrm.reward mrm s in
        let rec find lo hi =
          if lo > hi then assert false
          else begin
            let mid = (lo + hi) / 2 in
            let v = levels.(mid) in
            if v = rho then mid
            else if v < rho then find (mid + 1) hi
            else find lo (mid - 1)
          end
        in
        find 0 (Array.length levels - 1))
  in
  let _lambda, p = Markov.Ctmc.uniformized chain in
  let rp = Linalg.Csr.row_pointers p and ci = Linalg.Csr.col_indices p in
  { n_states = n; width; n_bands = Array.length levels - 1; levels;
    level_of_state;
    row_ptr = Array.init (n + 1) (fun i -> Int32.to_int rp.{i});
    cols = Array.init (Linalg.Csr.nnz p) (fun pos -> Int32.to_int ci.{pos});
    probs = Linalg.Vec.to_array (Linalg.Csr.values p);
    pool; cancel }

let select_band levels ~ratio =
  (* Largest h in 1..m with levels.(h-1) <= ratio < levels.(h); the caller
     has already excluded ratio >= levels.(m). *)
  let m = Array.length levels - 1 in
  let rec find h = if ratio < levels.(h) then h else find (h + 1) in
  let h = find 1 in
  assert (h <= m);
  h

(* The band h and normalised position x of the reward bound r at time t,
   or [None] in the degenerate case r >= rho_max * t, where the reward
   bound cannot be exceeded and the tail vanishes. *)
let band_position levels ~t ~r =
  let m = Array.length levels - 1 in
  let ratio = r /. t in
  if m = 0 || ratio >= levels.(m) then None
  else begin
    let h = select_band levels ~ratio in
    Some
      (h, (r -. (levels.(h - 1) *. t)) /. ((levels.(h) -. levels.(h - 1)) *. t))
  end

let uniformisation_rate chain =
  let m = Markov.Ctmc.max_exit_rate chain in
  if m > 0.0 then m else 1.0

let reject_impulses name mrm =
  if Markov.Mrm.has_impulses mrm then
    invalid_arg
      (name
      ^ ": impulse rewards are not supported by the occupation-time \
         algorithm (use the discretisation engine or simulation)")

(* The [C(h,n,k)] recursion touches, per layer n, one |S| x width block for
   every (band, k) pair with k <= n — the cell count the paper's complexity
   discussion charges the method with. *)
let record_recursion telemetry ~ctx ~max_layer =
  Telemetry.add telemetry "sericola.layers" (max_layer + 1);
  Telemetry.add telemetry "sericola.cells"
    (ctx.n_states * ctx.width * ctx.n_bands
    * ((max_layer + 1) * (max_layer + 2) / 2));
  Telemetry.record telemetry "sericola.bands" (float_of_int ctx.n_bands)

let goal_vector (p : Problem.t) =
  Array.map (fun b -> if b then 1.0 else 0.0) p.Problem.goal

(* [Linalg.Vec.dot init v] where v_i = a.(off + i * stride): the same
   products summed in the same ascending order with the same
   compensation, so the value is bit-identical to the dot product of the
   gathered vector. *)
let strided_dot (init : float array) a ~off ~stride =
  let s = ref 0.0 and comp = ref 0.0 in
  for i = 0 to Array.length init - 1 do
    let x = init.(i) *. a.(off + (i * stride)) in
    let s' = !s +. x in
    let c =
      if Float.abs !s >= Float.abs x then (!s -. s') +. x
      else (x -. s') +. !s
    in
    s := s';
    comp := !comp +. c
  done;
  !s +. !comp

(* sum_k bin_k c(h, layer, k) at one row, k ascending, skipping zero
   weights, Kahan-compensated: the layer sum {!solve_detailed} forms from
   [bin.(k) *. dot init c] when init is the unit vector of that row. *)
let binomial_sum bin cur ~base ~layer =
  let s = ref 0.0 and comp = ref 0.0 in
  for k = 0 to layer do
    let bk = bin.(k) in
    if bk > 0.0 then begin
      let x = bk *. cur.(base + k) in
      let s' = !s +. x in
      let c =
        if Float.abs !s >= Float.abs x then (!s -. s') +. x
        else (x -. s') +. !s
      in
      s := s';
      comp := !comp +. c
    end
  done;
  !s +. !comp

(* Set-up of the paper's series for one reward-bounded problem: the
   width-one context, the truncation point, the Poisson weights and
   their telemetry. *)
let paper_series ~epsilon ?pool ?telemetry ?cancel (p : Problem.t) ~band ~x =
  let chain = Markov.Mrm.ctmc p.Problem.mrm in
  let ctx = make_context ?pool ?cancel p.Problem.mrm ~width:1 in
  let rate = uniformisation_rate chain in
  let q = rate *. p.Problem.time_bound in
  (* Truncation exactly as in the paper's Section 4.4: the series runs
     over n = 0 .. N_epsilon (no left cut), and the transient
     probabilities are accumulated simultaneously with the same
     weights, so the displayed convergence in epsilon matches the
     published Table 2 column. *)
  let max_layer = Numerics.Poisson.right_truncation_point ~lambda:q ~epsilon in
  let weights = Numerics.Fox_glynn.compute ~q ~epsilon:1e-16 in
  Numerics.Fox_glynn.record telemetry weights;
  Telemetry.record telemetry "uniformisation.rate" rate;
  Telemetry.record telemetry "uniformisation.q" q;
  Telemetry.add telemetry "uniformisation.iterations" max_layer;
  Telemetry.record telemetry "sericola.band" (float_of_int band);
  Telemetry.record telemetry "sericola.x" x;
  record_recursion telemetry ~ctx ~max_layer;
  (ctx, max_layer, weights)

(* The Poisson mass the truncated series leaves out, as a fraction of
   the window's summed mass W: the truncation point normalises by the
   computed mass the same way, so this stays within rounding of the
   requested epsilon even where the computed terms do not sum to 1. *)
let record_achieved telemetry weights consumed =
  Telemetry.record telemetry "sericola.achieved_epsilon"
    (Float.max 0.0
       (1.0 -. (Numerics.Kahan.sum consumed /. weights.Numerics.Fox_glynn.total)))

let solve_detailed ?(epsilon = 1e-12) ?pool ?telemetry ?cancel
    (p : Problem.t) =
  let mrm = p.Problem.mrm in
  reject_impulses "Sericola.solve" mrm;
  let t = p.Problem.time_bound and r = p.Problem.reward_bound in
  Telemetry.record telemetry "sericola.epsilon" epsilon;
  match band_position (Markov.Mrm.reward_levels mrm) ~t ~r with
  | None ->
    (* The reward bound cannot be exceeded: Pr{Y_t > r} = 0. *)
    let transient_mass =
      Markov.Transient.reachability ~epsilon ?pool ?telemetry ?cancel
        (Markov.Mrm.ctmc mrm) ~init:p.Problem.init ~goal:p.Problem.goal ~t
    in
    { probability = transient_mass; steps = 0; band = 0; x = 0.0;
      transient_mass; tail_mass = 0.0 }
  | Some (h, x) ->
    let ctx, max_layer, weights =
      paper_series ~epsilon ?pool ?telemetry ?cancel p ~band:h ~x
    in
    let bin = Array.make (max_layer + 1) 0.0 in
    let lf = log_factorial_table max_layer in
    let tail = Numerics.Kahan.create () in
    let trans = Numerics.Kahan.create () in
    let consumed = Numerics.Kahan.create () in
    let init = Linalg.Vec.to_array p.Problem.init in
    let stride = ctx.n_bands * (max_layer + 1) in
    run_layers ctx ~g:(goal_vector p) ~max_layer ~consume:(fun layer cur png ->
        let weight = Numerics.Fox_glynn.weight weights layer in
        if weight > 0.0 then begin
          Numerics.Kahan.add consumed weight;
          Numerics.Kahan.add trans
            (weight *. strided_dot init png ~off:0 ~stride:1);
          binomial_pmf_into ~lf bin layer x;
          let layer_acc = Numerics.Kahan.create () in
          for k = 0 to layer do
            if bin.(k) > 0.0 then
              Numerics.Kahan.add layer_acc
                (bin.(k)
                *. strided_dot init cur
                     ~off:(offset ctx ~max_layer 0 h k) ~stride)
          done;
          Numerics.Kahan.add tail (weight *. Numerics.Kahan.sum layer_acc)
        end);
    record_achieved telemetry weights consumed;
    let tail_mass = Numerics.Float_utils.clamp_prob (Numerics.Kahan.sum tail) in
    let transient_mass =
      Numerics.Float_utils.clamp_prob (Numerics.Kahan.sum trans)
    in
    let probability =
      Numerics.Float_utils.clamp_prob (transient_mass -. tail_mass)
    in
    { probability; steps = max_layer; band = h; x; transient_mass; tail_mass }

let solve ?epsilon ?pool ?telemetry ?cancel p =
  (solve_detailed ?epsilon ?pool ?telemetry ?cancel p).probability

let solve_rows ?(epsilon = 1e-12) ?pool ?telemetry ?cancel (p : Problem.t)
    ~rows =
  let mrm = p.Problem.mrm in
  reject_impulses "Sericola.solve_rows" mrm;
  let n = Markov.Mrm.n_states mrm in
  Array.iter
    (fun b ->
      if b < 0 || b >= n then invalid_arg "Sericola.solve_rows: row out of range")
    rows;
  let t = p.Problem.time_bound and r = p.Problem.reward_bound in
  match band_position (Markov.Mrm.reward_levels mrm) ~t ~r with
  | None ->
    Array.map
      (fun b -> solve ~epsilon ?pool ?telemetry ?cancel (Problem.from_state p b))
      rows
  | Some (h, x) ->
    Telemetry.record telemetry "sericola.epsilon" epsilon;
    let ctx, max_layer, weights =
      paper_series ~epsilon ?pool ?telemetry ?cancel p ~band:h ~x
    in
    let bin = Array.make (max_layer + 1) 0.0 in
    let lf = log_factorial_table max_layer in
    let sums () = Array.map (fun _ -> Numerics.Kahan.create ()) rows in
    let tail = sums () and trans = sums () in
    let consumed = Numerics.Kahan.create () in
    (* Row b's accumulators see exactly the terms a solve from the unit
       distribution at b adds, in the same order: [Vec.dot (unit b) v]
       is [v.{b}] bit for bit (every other product is +0.0, which leaves
       a compensated sum unchanged), so the dot products become reads. *)
    run_layers ctx ~g:(goal_vector p) ~max_layer ~consume:(fun layer cur png ->
        let weight = Numerics.Fox_glynn.weight weights layer in
        if weight > 0.0 then begin
          Numerics.Kahan.add consumed weight;
          Array.iteri
            (fun j b -> Numerics.Kahan.add trans.(j) (weight *. png.(b)))
            rows;
          binomial_pmf_into ~lf bin layer x;
          Array.iteri
            (fun j b ->
              let base = offset ctx ~max_layer b h 0 in
              Numerics.Kahan.add tail.(j)
                (weight *. binomial_sum bin cur ~base ~layer))
            rows
        end);
    record_achieved telemetry weights consumed;
    Array.mapi
      (fun j _ ->
        let tail_mass =
          Numerics.Float_utils.clamp_prob (Numerics.Kahan.sum tail.(j))
        in
        let transient_mass =
          Numerics.Float_utils.clamp_prob (Numerics.Kahan.sum trans.(j))
        in
        Numerics.Float_utils.clamp_prob (transient_mass -. tail_mass))
      rows

let solve_many ?(epsilon = 1e-12) ?pool ?telemetry ?cancel (p : Problem.t)
    ~reward_bounds =
  let mrm = p.Problem.mrm in
  reject_impulses "Sericola.solve_many" mrm;
  let chain = Markov.Mrm.ctmc mrm in
  let t = p.Problem.time_bound in
  let levels = Markov.Mrm.reward_levels mrm in
  let n_bounds = Array.length reward_bounds in
  Array.iter
    (fun r ->
      if not (r >= 0.0 && Float.is_finite r) then
        invalid_arg "Sericola.solve_many: bounds must be non-negative")
    reward_bounds;
  (* Band position of each requested bound; [None] marks the degenerate
     case r >= rho_max * t where the tail vanishes. *)
  let positions = Array.map (fun r -> band_position levels ~t ~r) reward_bounds in
  let transient_mass =
    Markov.Transient.reachability ~epsilon ?pool ?telemetry ?cancel chain
      ~init:p.Problem.init ~goal:p.Problem.goal ~t
  in
  if Array.for_all (( = ) None) positions then
    Array.make n_bounds transient_mass
  else begin
    let ctx = make_context ?pool ?cancel mrm ~width:1 in
    let fg =
      Numerics.Fox_glynn.compute ~q:(uniformisation_rate chain *. t) ~epsilon
    in
    Numerics.Fox_glynn.record telemetry fg;
    let max_layer = fg.Numerics.Fox_glynn.right in
    record_recursion telemetry ~ctx ~max_layer;
    let bin = Array.make (max_layer + 1) 0.0 in
    let lf = log_factorial_table max_layer in
    let tails = Array.init n_bounds (fun _ -> Numerics.Kahan.create ()) in
    let init = Linalg.Vec.to_array p.Problem.init in
    let stride = ctx.n_bands * (max_layer + 1) in
    run_layers ctx ~g:(goal_vector p) ~max_layer ~consume:(fun layer cur _png ->
        let weight = Numerics.Fox_glynn.weight fg layer in
        if weight > 0.0 then begin
          (* Dot products once per (band, k) actually used this layer. *)
          let dot_cache = Hashtbl.create 16 in
          let dot h k =
            match Hashtbl.find_opt dot_cache (h, k) with
            | Some v -> v
            | None ->
              let v =
                strided_dot init cur ~off:(offset ctx ~max_layer 0 h k) ~stride
              in
              Hashtbl.add dot_cache (h, k) v;
              v
          in
          Array.iteri
            (fun j position ->
              match position with
              | None -> ()
              | Some (h, x) ->
                binomial_pmf_into ~lf bin layer x;
                let acc = Numerics.Kahan.create () in
                for k = 0 to layer do
                  if bin.(k) > 0.0 then
                    Numerics.Kahan.add acc (bin.(k) *. dot h k)
                done;
                Numerics.Kahan.add tails.(j)
                  (weight *. Numerics.Kahan.sum acc))
            positions
        end);
    Array.mapi
      (fun j position ->
        match position with
        | None -> transient_mass
        | Some _ ->
          Numerics.Float_utils.clamp_prob
            (transient_mass
            -. Numerics.Float_utils.clamp_prob
                 (Numerics.Kahan.sum tails.(j))))
      positions
  end

let joint_matrix ?(epsilon = 1e-12) ?pool ?telemetry ?cancel mrm ~t ~r =
  reject_impulses "Sericola.joint_matrix" mrm;
  if not (t > 0.0) then invalid_arg "Sericola.joint_matrix: t must be > 0";
  if r < 0.0 then invalid_arg "Sericola.joint_matrix: r must be >= 0";
  let n = Markov.Mrm.n_states mrm in
  match band_position (Markov.Mrm.reward_levels mrm) ~t ~r with
  | None -> Array.make_matrix n n 0.0
  | Some (h, x) ->
    let ctx = make_context ?pool ?cancel mrm ~width:n in
    let fg =
      Numerics.Fox_glynn.compute
        ~q:(uniformisation_rate (Markov.Mrm.ctmc mrm) *. t)
        ~epsilon
    in
    Numerics.Fox_glynn.record telemetry fg;
    let max_layer = fg.Numerics.Fox_glynn.right in
    record_recursion telemetry ~ctx ~max_layer;
    (* G = identity block. *)
    let g = Array.make (n * n) 0.0 in
    for i = 0 to n - 1 do
      g.((i * n) + i) <- 1.0
    done;
    let bin = Array.make (max_layer + 1) 0.0 in
    let lf = log_factorial_table max_layer in
    let result = Array.make_matrix n n 0.0 in
    run_layers ctx ~g ~max_layer ~consume:(fun layer cur _png ->
        let weight = Numerics.Fox_glynn.weight fg layer in
        if weight > 0.0 then begin
          binomial_pmf_into ~lf bin layer x;
          (* Collect the layer's (scale, k) terms in ascending-k order,
             then accumulate them row-partitioned across the pool: rows
             are disjoint, and every cell adds its terms in the same k
             order as the sequential loop, so the result is
             bit-identical for any pool size. *)
          let terms = ref [] in
          for k = layer downto 0 do
            if bin.(k) > 0.0 then terms := (weight *. bin.(k), k) :: !terms
          done;
          let terms = !terms in
          Parallel.Pool.parallel_for ~cutoff:block_row_cutoff ctx.pool ~lo:0
            ~hi:n (fun lo hi ->
              for i = lo to hi - 1 do
                let row = result.(i) in
                List.iter
                  (fun ((scale : float), k) ->
                    let off = offset ctx ~max_layer i h k in
                    for j = 0 to n - 1 do
                      row.(j) <- row.(j) +. (scale *. cur.(off + j))
                    done)
                  terms
              done)
        end);
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j v -> result.(i).(j) <- Numerics.Float_utils.clamp_prob v)
          row)
      result;
    result
