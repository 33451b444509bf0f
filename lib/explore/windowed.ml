type class_ =
  | Transient of { counts : bool }
  | Absorb of { goal : bool }

type stats = {
  peak_window : int;
  states_expanded : int;
  mass_dropped : float;
  iterations : int;
  rate : float;
  restarts : int;
}

type result = {
  value : float;
  delta : float;
  lower : float;
  upper : float;
  epsilon : float;
  stats : stats;
}

type outcome =
  | Bounded of result
  | Reward_bound_active of { rho_max : float; stats : stats }

(* An expanded state's exit rate exceeded the current uniformisation
   rate: abandon the run and start over with a larger rate.  The space
   and the solve's ranks survive, so only the arithmetic is redone. *)
exception Restart of float

(* The reward bound bites inside the window (rho_max * t > r). *)
exception Reward_active of float

exception Reward_active_outcome of float * stats

(* Per-state info word: the class code in the low two bits (a query's
   classification is immutable), plus three flags. *)
let c_transient = 0
let c_counting = 1
let c_goal = 2
let c_fail = 3
let class_bits = 3
let visited = 4     (* successors ranked by this solve *)
let in_touched = 8  (* in the touched set of the current step *)
let scattered = 16  (* counted in states_expanded by this pass *)

(* A window entry packs a state's rank above its id, so sorting entries
   as plain ints sorts them by rank. *)
let id_bits = 31
let id_mask = (1 lsl id_bits) - 1

(* The scalar accumulators of one pass.  OCaml stores an all-float
   record flat, so updating a field allocates nothing, where a float
   [ref] shared with a closure boxes every new value. *)
type sums = {
  mutable goal_mass : float;  (* mass absorbed in GOAL states *)
  mutable dropped : float;    (* mass truncated so far *)
  mutable result : float;     (* the Poisson-weighted sum: the lower bound *)
  mutable consumed : float;   (* Poisson weight credited so far *)
  mutable allowance : float;  (* unspent drop budget *)
  mutable rho_max : float;    (* largest reward in the window so far *)
  mutable exit : float;       (* exit rate of the state being scattered *)
  mutable acc : float;        (* a running sum within one step *)
}

(* Solve-local state, indexed by space id.  A state's rank is the order
   in which this solve first saw it, as an initial state or as a
   successor of a state it visited.  The window is kept sorted by rank,
   so the arithmetic depends only on the model and the query, never on
   which solves warmed the space before; on a cold space ranks and ids
   are assigned in the same order.  Ranks and classes survive a rate
   restart; the masses and flags of a pass are cleared.  Every array
   grows by doubling. *)
type scratch = {
  space : Space.t;
  classify : Succ.state -> class_;
  mutable rank : int array;     (* id -> rank, -1 = not seen yet *)
  mutable n_ranked : int;
  mutable info : int array;     (* id -> class code and flags *)
  mutable cur : float array;    (* id -> mass at the current step *)
  mutable next : float array;   (* id -> mass being scattered into *)
  mutable window : int array;   (* active entries, ascending *)
  mutable n_window : int;
  mutable touched : int array;  (* entries touched by the current step *)
}

let create_scratch space classify =
  let cap = 64 in
  { space; classify; rank = Array.make cap (-1); n_ranked = 0;
    info = Array.make cap 0; cur = Array.make cap 0.0;
    next = Array.make cap 0.0; window = Array.make cap 0; n_window = 0;
    touched = Array.make cap 0 }

let extend a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Make the arrays cover every id the space has assigned.  The window
   and the touched set hold distinct states, so sizing them with the
   rest means a push never overflows. *)
let cover sc =
  let n = Space.n_states sc.space in
  let cap = Array.length sc.rank in
  if n > cap then begin
    if n > id_mask then invalid_arg "Windowed.solve: too many states";
    let cap = ref cap in
    while n > !cap do
      cap := 2 * !cap
    done;
    let cap = !cap in
    sc.rank <- extend sc.rank cap (-1);
    sc.info <- extend sc.info cap 0;
    sc.cur <- extend sc.cur cap 0.0;
    sc.next <- extend sc.next cap 0.0;
    sc.window <- extend sc.window cap 0;
    sc.touched <- extend sc.touched cap 0
  end

(* Rank and classify a state the first time this solve sees it. *)
let see sc id =
  if sc.rank.(id) < 0 then begin
    sc.info.(id) <-
      (match sc.classify (Space.state sc.space id) with
      | Transient { counts = false } -> c_transient
      | Transient { counts = true } -> c_counting
      | Absorb { goal = true } -> c_goal
      | Absorb { goal = false } -> c_fail);
    sc.rank.(id) <- sc.n_ranked;
    sc.n_ranked <- sc.n_ranked + 1
  end

(* First visit of a state in this solve: expand it and see its
   successors in the model's order — before any restart check, so that
   on a cold space every id the expansion assigns gets the matching
   rank. *)
let visit sc id =
  let ids = Space.succ_ids sc.space id in
  cover sc;
  for k = 0 to Array.length ids - 1 do
    see sc ids.(k)
  done;
  sc.info.(id) <- sc.info.(id) lor visited

let entry (rank : int array) id = (rank.(id) lsl id_bits) lor id

(* A state's exit rate: the sum of its successor rates in the model's
   order, left in [sums.exit] so it is never boxed. *)
let sum_exit sums (rates : float array) =
  sums.exit <- 0.0;
  for k = 0 to Array.length rates - 1 do
    sums.exit <- sums.exit +. rates.(k)
  done

(* Clear the masses and flags of a pass; ranks and classes stay. *)
let reset sc =
  let n = Array.length sc.rank in
  Array.fill sc.cur 0 n 0.0;
  Array.fill sc.next 0 n 0.0;
  for id = 0 to n - 1 do
    sc.info.(id) <- sc.info.(id) land lnot (in_touched lor scattered)
  done;
  sc.n_window <- 0

(* In-place ascending sort of [a.(lo) .. a.(hi)]: quicksort around the
   median of three, insertion sort below 16 elements, the larger half
   last so the stack stays logarithmic. *)
let rec sort_ints (a : int array) lo hi =
  if hi - lo < 16 then
    for i = lo + 1 to hi do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let x = a.(lo) and y = a.(lo + ((hi - lo) / 2)) and z = a.(hi) in
    let pivot =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do
        incr i
      done;
      while a.(!j) > pivot do
        decr j
      done;
      if !i <= !j then begin
        let tmp = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    if !j - lo < hi - !i then begin
      sort_ints a lo !j;
      sort_ints a !i hi
    end
    else begin
      sort_ints a !i hi;
      sort_ints a lo !j
    end
  end

let clamp_prob x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

(* One full uniformisation pass at a fixed rate [lambda].  Raises
   [Restart] when the rate proves too small and [Reward_active] when the
   reward bound bites.  Deterministic: the window is kept sorted by rank
   and every accumulation walks it in that order.  A step allocates
   nothing; only a state's first visit in the solve can (through
   [Space.expand] and the doubling of the scratch arrays). *)
let run_once ?telemetry ?cancel ~truncate ~epsilon ~init ~t ~reward_bound sc
    sums lambda =
  let q = lambda *. t in
  let fg = Numerics.Fox_glynn.compute ~q ~epsilon:(epsilon /. 2.0) in
  let left = fg.Numerics.Fox_glynn.left
  and right = fg.Numerics.Fox_glynn.right
  and weights = fg.Numerics.Fox_glynn.weights
  and total = fg.Numerics.Fox_glynn.total in
  let per_step = epsilon /. 2.0 /. float_of_int (right + 1) in
  let reward_bounded = Option.is_some reward_bound in
  let reward_ceiling =
    match reward_bound with Some r -> r | None -> infinity
  in
  sums.goal_mass <- 0.0;
  sums.dropped <- 0.0;
  sums.result <- 0.0;
  sums.consumed <- 0.0;
  sums.allowance <- 0.0;
  sums.rho_max <- 0.0;
  let expanded = ref 0 and iterations = ref 0 in
  (* Without a reward bound [rho_max] can never bite, so it is not
     tracked. *)
  let note_windowed id =
    if reward_bounded then begin
      let rho = (Space.rewards sc.space).(id) in
      if rho > sums.rho_max then begin
        sums.rho_max <- rho;
        if sums.rho_max *. t > reward_ceiling then
          raise (Reward_active sums.rho_max)
      end
    end
  in
  reset sc;
  (* Seed the window from the initial distribution. *)
  List.iter
    (fun (s, w) ->
      if w > 0.0 then begin
        let id = Space.intern sc.space s in
        cover sc;
        see sc id;
        let c = sc.info.(id) land class_bits in
        if c = c_goal then sums.goal_mass <- sums.goal_mass +. w
        else if c <> c_fail then begin
          if sc.cur.(id) = 0.0 then begin
            sc.window.(sc.n_window) <- entry sc.rank id;
            sc.n_window <- sc.n_window + 1
          end;
          sc.cur.(id) <- sc.cur.(id) +. w
        end
      end)
    init;
  sort_ints sc.window 0 (sc.n_window - 1);
  for i = 0 to sc.n_window - 1 do
    note_windowed (sc.window.(i) land id_mask)
  done;
  let peak = ref sc.n_window in
  let clear_window () =
    for i = 0 to sc.n_window - 1 do
      sc.cur.(sc.window.(i) land id_mask) <- 0.0
    done;
    sc.n_window <- 0
  in
  (* Scatter cur through one step of P = I + R/lambda, then make the
     sorted, truncated touched set the new window. *)
  let step () =
    incr iterations;
    let n_touched = ref 0 in
    let window = sc.window in
    for i = 0 to sc.n_window - 1 do
      let id = window.(i) land id_mask in
      if sc.info.(id) land visited = 0 then visit sc id;
      let ids = Space.succ_ids sc.space id
      and rates = Space.succ_rates sc.space id in
      sum_exit sums rates;
      let exit = sums.exit in
      if exit > lambda then raise (Restart exit);
      let info = sc.info and rank = sc.rank and next = sc.next
      and touched = sc.touched in
      if info.(id) land scattered = 0 then begin
        info.(id) <- info.(id) lor scattered;
        incr expanded
      end;
      let p = sc.cur.(id) in
      for k = 0 to Array.length ids - 1 do
        let u = ids.(k) in
        let flow = p *. rates.(k) /. lambda in
        let f = info.(u) in
        let c = f land class_bits in
        if c = c_goal then sums.goal_mass <- sums.goal_mass +. flow
        else if c <> c_fail then begin
          if f land in_touched = 0 then begin
            info.(u) <- f lor in_touched;
            touched.(!n_touched) <- entry rank u;
            incr n_touched
          end;
          next.(u) <- next.(u) +. flow
        end
      done;
      let stay = p *. (1.0 -. (exit /. lambda)) in
      if stay > 0.0 then begin
        let f = info.(id) in
        if f land in_touched = 0 then begin
          info.(id) <- f lor in_touched;
          touched.(!n_touched) <- window.(i);
          incr n_touched
        end;
        next.(id) <- next.(id) +. stay
      end;
      sc.cur.(id) <- 0.0
    done;
    let touched = sc.touched and n_touched = !n_touched in
    let info = sc.info and cur = sc.cur and next = sc.next in
    sort_ints touched 0 (n_touched - 1);
    (* Budgeted truncation: drop the states whose mass fell below an
       even split of the rolling allowance. *)
    let kept = ref 0 in
    if truncate && n_touched > 0 then begin
      let threshold = sums.allowance /. float_of_int n_touched in
      sums.acc <- 0.0;
      for i = 0 to n_touched - 1 do
        let e = touched.(i) in
        let id = e land id_mask in
        info.(id) <- info.(id) land lnot in_touched;
        let m = next.(id) in
        if m < threshold && sums.acc +. m <= sums.allowance then begin
          sums.acc <- sums.acc +. m;
          next.(id) <- 0.0
        end
        else begin
          touched.(!kept) <- e;
          incr kept
        end
      done;
      if sums.acc > 0.0 then begin
        sums.dropped <- sums.dropped +. sums.acc;
        sums.allowance <- sums.allowance -. sums.acc
      end
    end
    else begin
      for i = 0 to n_touched - 1 do
        let id = touched.(i) land id_mask in
        info.(id) <- info.(id) land lnot in_touched
      done;
      kept := n_touched
    end;
    (* The touched buffer becomes the window; the old window's buffer
       collects the next step's touched set. *)
    let kept = !kept in
    sc.touched <- sc.window;
    sc.window <- touched;
    sc.n_window <- kept;
    if kept > !peak then peak := kept;
    for i = 0 to kept - 1 do
      let id = touched.(i) land id_mask in
      cur.(id) <- next.(id);
      next.(id) <- 0.0;
      note_windowed id
    done
  in
  let finished = ref false in
  let n = ref 0 in
  while not !finished do
    Numerics.Cancel.check cancel;
    sums.acc <- sums.goal_mass;
    for i = 0 to sc.n_window - 1 do
      let id = sc.window.(i) land id_mask in
      if sc.info.(id) land class_bits = c_counting then
        sums.acc <- sums.acc +. sc.cur.(id)
    done;
    let c = sums.acc in
    let w = if !n < left || !n > right then 0.0 else weights.(!n - left) in
    if w > 0.0 then begin
      sums.result <- sums.result +. (w *. c);
      sums.consumed <- sums.consumed +. w
    end;
    if !n >= right then begin
      clear_window ();
      finished := true
    end
    else begin
      sums.allowance <- sums.allowance +. per_step;
      if sc.n_window = 0 then begin
        (* Window empty: every remaining step contributes exactly [c]. *)
        sums.result <- sums.result +. ((total -. sums.consumed) *. c);
        finished := true
      end
      else begin
        sums.acc <- 0.0;
        for i = 0 to sc.n_window - 1 do
          sums.acc <- sums.acc +. sc.cur.(sc.window.(i) land id_mask)
        done;
        let active_mass = sums.acc in
        if truncate && active_mass <= sums.allowance then begin
          (* The whole window fits in the budget: drop it and finish
             with the absorbed mass alone. *)
          sums.dropped <- sums.dropped +. active_mass;
          sums.allowance <- sums.allowance -. active_mass;
          clear_window ();
          sums.result <-
            sums.result +. ((total -. sums.consumed) *. sums.goal_mass);
          finished := true
        end
        else begin
          step ();
          incr n
        end
      end
    end
  done;
  let tail = Float.max 0.0 (1.0 -. total) in
  let lower = clamp_prob sums.result in
  let upper = clamp_prob (lower +. tail +. sums.dropped) in
  let upper = Float.max upper lower in
  let value = 0.5 *. (lower +. upper) in
  let delta = 0.5 *. (upper -. lower) in
  Numerics.Fox_glynn.record telemetry fg;
  { value; delta; lower; upper; epsilon;
    stats =
      { peak_window = !peak; states_expanded = !expanded;
        mass_dropped = sums.dropped; iterations = !iterations; rate = lambda;
        restarts = 0 } }

let rec solve ?telemetry ?cancel ?(truncate = true) ?rate ~epsilon ~classify
    ~init ~t ~reward_bound space =
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Windowed.solve: epsilon must be in (0, 1)";
  if not (t > 0.0 && Float.is_finite t) then
    invalid_arg "Windowed.solve: time bound must be finite, > 0";
  (match rate with
  | Some r when not (r > 0.0 && Float.is_finite r) ->
    invalid_arg "Windowed.solve: rate must be finite, > 0"
  | _ -> ());
  if List.is_empty init then
    invalid_arg "Windowed.solve: empty initial distribution";
  let total_w = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 init in
  if Float.abs (total_w -. 1.0) > 1e-9 then
    invalid_arg
      (Printf.sprintf "Windowed.solve: initial weights sum to %.17g" total_w);
  if List.exists (fun (_, w) -> not (w >= 0.0 && Float.is_finite w)) init then
    invalid_arg "Windowed.solve: negative initial weight";
  let sc = create_scratch space classify in
  let sums =
    { goal_mass = 0.0; dropped = 0.0; result = 0.0; consumed = 0.0;
      allowance = 0.0; rho_max = 0.0; exit = 0.0; acc = 0.0 }
  in
  let initial_rate =
    match rate with
    | Some r -> r
    | None ->
      (* Start from the initial states' exit rates; restarts take it up
         geometrically from there. *)
      let m =
        List.fold_left
          (fun acc (s, w) ->
            if w > 0.0 then begin
              sum_exit sums (Space.succ_rates space (Space.intern space s));
              Float.max acc sums.exit
            end
            else acc)
          0.0 init
      in
      if m > 0.0 then m else 1.0
  in
  let finish restarts stats =
    let stats = { stats with restarts } in
    Telemetry.add telemetry "explore.states_expanded" stats.states_expanded;
    Telemetry.add telemetry "explore.iterations" stats.iterations;
    Telemetry.add telemetry "explore.restarts" restarts;
    Telemetry.record_max telemetry "explore.peak_window"
      (float_of_int stats.peak_window);
    Telemetry.record telemetry "explore.mass_dropped" stats.mass_dropped;
    Telemetry.record telemetry "explore.rate" stats.rate;
    stats
  in
  let rec attempt restarts lambda =
    if restarts > 200 then
      failwith "Windowed.solve: uniformisation rate failed to stabilise";
    match
      run_once ?telemetry ?cancel ~truncate ~epsilon ~init ~t ~reward_bound sc
        sums lambda
    with
    | r -> (restarts, r)
    | exception Restart exit ->
      attempt (restarts + 1) (Float.max (exit *. 1.2) (lambda *. 1.2))
    | exception Reward_active rho_max ->
      let stats =
        finish restarts
          { peak_window = 0; states_expanded = 0; mass_dropped = 0.0;
            iterations = 0; rate = lambda; restarts }
      in
      raise (Reward_active_outcome (rho_max, stats))
  in
  match attempt 0 initial_rate with
  | restarts, r ->
    let stats = finish restarts r.stats in
    let r = { r with stats } in
    Telemetry.record telemetry "explore.delta" r.delta;
    if r.delta <= epsilon then Bounded r
    else if truncate then begin
      (* Unreachable by construction; keep the promise anyway. *)
      solve ?telemetry ?cancel ~truncate:false ?rate ~epsilon ~classify ~init
        ~t ~reward_bound space
    end
    else
      failwith
        (Printf.sprintf
           "Windowed.solve: cannot certify epsilon=%g (delta=%g untruncated)"
           epsilon r.delta)
  | exception Reward_active_outcome (rho_max, stats) ->
    Reward_bound_active { rho_max; stats }
