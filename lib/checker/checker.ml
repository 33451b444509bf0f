(* A robust context carries the interval model next to the precise
   fields; [mrm] is then the point model (zero width) or the interval
   midpoints.  Zero-width models run the precise procedures on it;
   otherwise it is used only for state counts and display — the precise
   entry points are guarded. *)
type t = {
  mrm : Markov.Mrm.t;
  labeling : Markov.Labeling.t;
  engine : Perf.Engine.spec;
  imrm : Robust.Imrm.t option;
  epsilon : float;
  pool : Parallel.Pool.t;
  telemetry : Telemetry.t option;
  cancel : Numerics.Cancel.t option;
}

exception Unsupported of string

let make ?(engine = Perf.Engine.default) ?(epsilon = 1e-9)
    ?(pool = Parallel.Pool.sequential) ?telemetry ?cancel mrm labeling =
  if Markov.Labeling.n_states labeling <> Markov.Mrm.n_states mrm then
    invalid_arg "Checker.make: labeling and model sizes differ";
  { mrm; labeling; engine; imrm = None; epsilon; pool; telemetry; cancel }

let make_robust ?(engine = Perf.Engine.default) ?(epsilon = 1e-9)
    ?(pool = Parallel.Pool.sequential) ?telemetry ?cancel imrm labeling =
  if Markov.Labeling.n_states labeling <> Robust.Imrm.n_states imrm then
    invalid_arg "Checker.make_robust: labeling and model sizes differ";
  let mrm =
    if Robust.Imrm.is_point imrm then Robust.Imrm.point_model imrm
    else Robust.Imrm.midpoint imrm
  in
  { mrm; labeling; engine; imrm = Some imrm; epsilon; pool; telemetry;
    cancel }

let mrm ctx = ctx.mrm
let robust_model ctx = ctx.imrm
let is_robust ctx = ctx.imrm <> None
let with_pool ctx pool = { ctx with pool }
let with_telemetry ctx telemetry = { ctx with telemetry }
let with_cancel ctx cancel = { ctx with cancel }

let require_precise ctx what =
  if ctx.imrm <> None then
    raise
      (Unsupported
         (what
        ^ " on a robust (interval-valued) context: interval models answer \
           through eval_query's three-valued and interval verdicts"))

(* Operators with no envelope procedure are refused on interval models. *)
let refuse_interval ctx message =
  if ctx.imrm <> None then raise (Unsupported message)

(* ------------------------------------------------------------------ *)
(* Sat-sets and path values, over both context kinds.  A Sat-set is a
   must/may pair: [must] holds the states that satisfy the formula
   under every model of the context, [may] those that satisfy it under
   some model.  A path value is a per-state envelope [lo, hi].  On a
   precise context — and wherever no interval width reaches a
   subformula — both halves are one physical array, so a precise check
   computes one mask or vector per subformula.                         *)

type tri = Holds | Fails | Unknown

type sat_set = { must : bool array; may : bool array }

let point_set a = { must = a; may = a }
let is_point_set s = s.must == s.may
let point_value v = { Robust.Envelope.lo = v; hi = v }

(* Negation swaps the roles: certainly not Phi is not possibly Phi. *)
let swap s = { must = s.may; may = s.must }

let lift1 op s =
  if is_point_set s then point_set (Array.map op s.must)
  else { must = Array.map op s.must; may = Array.map op s.may }

(* Kleene's connectives are pointwise on the must and the may halves. *)
let lift2 op f g =
  let apply x y = Array.init (Array.length x) (fun s -> op x.(s) y.(s)) in
  if is_point_set f && is_point_set g then point_set (apply f.must g.must)
  else { must = apply f.must g.must; may = apply f.may g.may }

let tri_of_bool b = if b then Holds else Fails
let tri_to_string = function
  | Holds -> "holds"
  | Fails -> "fails"
  | Unknown -> "unknown"

let tri_array s =
  Array.init (Array.length s.must) (fun i ->
      if s.must.(i) then Holds else if s.may.(i) then Unknown else Fails)

(* Does every value of [lo, hi] satisfy [cmp p]?  Does none? *)
let tri_of_bounds cmp p ~lo ~hi =
  let worst, best =
    match cmp with
    | Logic.Ast.Ge | Logic.Ast.Gt -> (lo, hi)
    | Logic.Ast.Le | Logic.Ast.Lt -> (hi, lo)
  in
  if Logic.Ast.compare_holds cmp p worst then Holds
  else if not (Logic.Ast.compare_holds cmp p best) then Fails
  else Unknown

(* The Sat-set of a [cmp p] threshold: [Unknown] exactly where the
   value straddles the bound, which a zero-width value never does. *)
let threshold cmp p (v : Robust.Envelope.result) =
  let verdict s = tri_of_bounds cmp p ~lo:v.lo.{s} ~hi:v.hi.{s} in
  let n = Linalg.Vec.length v.lo in
  if v.lo == v.hi then point_set (Array.init n (fun s -> verdict s = Holds))
  else
    { must = Array.init n (fun s -> verdict s = Holds);
      may = Array.init n (fun s -> verdict s <> Fails) }

(* ------------------------------------------------------------------ *)
(* The cross-query memo.  Subformulas are hash-consed: structurally
   equal (sub)formulas are interned to one integer id, and the Sat-set
   and path-value tables are keyed by that id, so a batch of queries
   sharing subformulas computes each Sat-set and each path value once.
   Everything a memo stores is a deterministic function of its key on a
   fixed context, which is what keeps memoised answers bit-identical to
   cold ones.  One mutex guards all tables: batched queries may run on
   several pool domains at once, and a concurrent miss at worst
   duplicates a deterministic compute. *)

type memo = {
  mlock : Mutex.t;
  state_ids : (Logic.Ast.state_formula, int) Hashtbl.t;
  path_ids : (Logic.Ast.path_formula, int) Hashtbl.t;
  mutable next_id : int;
  sat_tbl : (int, sat_set) Numerics.Memo.t;
  path_tbl : (int, Robust.Envelope.result) Numerics.Memo.t;
  perf : Perf.Batch.t;   (* the Theorem 1 pipeline per mask pair *)
}

let create_memo () =
  { mlock = Mutex.create ();
    state_ids = Hashtbl.create 64;
    path_ids = Hashtbl.create 16;
    next_id = 0;
    sat_tbl = Numerics.Memo.create 64;
    path_tbl = Numerics.Memo.create 16;
    perf = Perf.Batch.create () }

(* Intern under the memo lock; ids are dense and never recycled. *)
let intern memo ids key =
  Mutex.protect memo.mlock (fun () ->
      match Hashtbl.find_opt ids key with
      | Some id -> id
      | None ->
        let id = memo.next_id in
        memo.next_id <- id + 1;
        Hashtbl.add ids key id;
        id)

(* The cached value of a subformula; [compute] runs outside the lock (it
   takes the lock recursively for the subformula's own operands). *)
let memoize memo tbl ids key compute =
  Numerics.Memo.find_or_compute memo.mlock tbl (intern memo ids key) compute

let memo_counters memo =
  let own =
    Mutex.protect memo.mlock (fun () ->
        let c = Numerics.Memo.counters in
        [ ("path", c memo.path_tbl); ("sat", c memo.sat_tbl) ])
  in
  List.sort compare (own @ Perf.Batch.counters memo.perf)

(* ------------------------------------------------------------------ *)
(* Unbounded until (P0): qualitative precomputation + linear system.  *)

let until_unbounded ctx ~phi ~psi =
  let chain = Markov.Mrm.ctmc ctx.mrm in
  let n = Markov.Ctmc.n_states chain in
  let g = Markov.Ctmc.graph chain in
  let prob0 = Graph.Reach.until_prob0 g ~phi ~psi in
  let prob1 = Graph.Reach.until_prob1 g ~phi ~psi in
  let open_state s = (not prob0.(s)) && not prob1.(s) in
  let emb = Markov.Ctmc.embedded chain in
  (* x = A x + b on the open states: A keeps embedded probabilities among
     open states, b collects one-step mass into prob-1 states. *)
  let triples = ref [] in
  let b = Linalg.Vec.create n in
  for s = 0 to n - 1 do
    if open_state s then
      Linalg.Csr.iter_row emb s (fun s' p ->
          if prob1.(s') then b.{s} <- b.{s} +. p
          else if open_state s' then triples := (s, s', p) :: !triples)
  done;
  let a = Linalg.Csr.of_coo ~rows:n ~cols:n !triples in
  let outcome = Linalg.Solvers.gauss_seidel_fixpoint ~tol:(ctx.epsilon /. 10.0) a ~b in
  if not outcome.Linalg.Solvers.converged then
    failwith "Checker: unbounded-until system did not converge";
  Telemetry.add ctx.telemetry "unbounded_until.iterations"
    outcome.Linalg.Solvers.iterations;
  Linalg.Vec.init n (fun s ->
      if prob1.(s) then 1.0
      else if prob0.(s) then 0.0
      else Numerics.Float_utils.clamp_prob outcome.Linalg.Solvers.solution.{s})

(* ------------------------------------------------------------------ *)
(* Time-bounded until (P1): absorb and run transient analysis.        *)

let until_time_bounded ctx ~phi ~psi ~time_bound =
  let chain = Markov.Mrm.ctmc ctx.mrm in
  let n = Markov.Ctmc.n_states chain in
  let absorb = Array.init n (fun s -> psi.(s) || not phi.(s)) in
  let absorbed = Markov.Transform.make_absorbing chain ~absorb in
  Markov.Transient.reachability_all ~epsilon:ctx.epsilon ~pool:ctx.pool
    ?telemetry:ctx.telemetry ?cancel:ctx.cancel absorbed ~goal:psi
    ~t:time_bound

(* ------------------------------------------------------------------ *)
(* Until with a time interval [a, b] (or [a, inf)): the standard
   two-phase construction, an extension beyond the paper's [0, b]
   fragment.  During [0, a] the path must stay inside Phi (not-Phi states
   are made absorbing and contribute nothing); conditioned on the state
   occupied at time a, what remains is an ordinary time-bounded until
   over a horizon of b - a (or an unbounded one).                      *)

let until_time_window ctx ~phi ~psi ~t_lo ~t_hi =
  let chain = Markov.Mrm.ctmc ctx.mrm in
  let n = Markov.Ctmc.n_states chain in
  let phase2 =
    match t_hi with
    | Some b -> until_time_bounded ctx ~phi ~psi ~time_bound:(b -. t_lo)
    | None -> until_unbounded ctx ~phi ~psi
  in
  let terminal =
    Linalg.Vec.init n (fun s -> if phi.(s) then phase2.{s} else 0.0)
  in
  let absorbed =
    Markov.Transform.make_absorbing chain ~absorb:(Array.map not phi)
  in
  Linalg.Vec.map Numerics.Float_utils.clamp_prob
    (Markov.Transient.backward ~epsilon:ctx.epsilon ~pool:ctx.pool
       ?telemetry:ctx.telemetry ?cancel:ctx.cancel absorbed ~terminal
       ~t:t_lo)

(* ------------------------------------------------------------------ *)
(* Reward-bounded until (P2): duality transform, then P1 on the dual. *)

let until_reward_bounded ctx ~phi ~psi ~reward_bound =
  let n = Markov.Mrm.n_states ctx.mrm in
  let reduced = Perf.Reduced.reduce ctx.mrm ~phi ~psi in
  let m' = reduced.Perf.Reduced.mrm in
  if not (Markov.Duality.is_dualizable m') then
    raise
      (Unsupported
         "reward-bounded until on a model with zero-reward non-absorbing \
          states: the duality transform needs positive rewards (the paper \
          shares this restriction; add a time bound to use the P3 engines)");
  let dual = Markov.Duality.dual m' in
  let dual_probs =
    Markov.Transient.reachability_all ~epsilon:ctx.epsilon ~pool:ctx.pool
      ?telemetry:ctx.telemetry ?cancel:ctx.cancel (Markov.Mrm.ctmc dual)
      ~goal:reduced.Perf.Reduced.goal ~t:reward_bound
  in
  Linalg.Vec.init n (fun s -> dual_probs.{reduced.Perf.Reduced.state_map.(s)})

(* ------------------------------------------------------------------ *)
(* Time- and reward-bounded until (P3): Theorem 1 + a Section 4 engine,
   through the memo's pipeline cache.  The pipeline only depends on
   (Sat Phi, Sat Psi), so queries of a batch that differ in t, r or p
   share it; the solved vector is stored once, as the path value.
   Per-state answers come back through the quotient-and-prune
   pipeline's map, so the Sat-set translation is transparent to nested
   formulas.                                                           *)

let until_both_bounded memo ctx ~phi ~psi ~time_bound ~reward_bound =
  let solve =
    Perf.Engine.solve_rows ~pool:ctx.pool ?telemetry:ctx.telemetry
      ?cancel:ctx.cancel ctx.engine
  in
  Perf.Batch.until_probabilities memo.perf ?telemetry:ctx.telemetry
    ~pool:ctx.pool solve ctx.mrm ~phi ~psi ~time_bound ~reward_bound

(* ------------------------------------------------------------------ *)
(* Next.  The jump out of [s] must happen at a sojourn time inside the
   time interval I and — since the reward earned is [rho s * sojourn] —
   inside [J / rho s] as well.  General intervals are fine here: the
   sojourn is exponential, so the factor is a difference of two
   exponentials over the intersected window.                          *)

let next_probabilities ctx ~time ~reward ~target =
  let chain = Markov.Mrm.ctmc ctx.mrm in
  let n = Markov.Ctmc.n_states chain in
  Linalg.Vec.init n (fun s ->
      let exit = Markov.Ctmc.exit_rate chain s in
      if exit = 0.0 then 0.0
      else begin
        (* Mass of successors satisfying the target formula. *)
        let hit = ref 0.0 in
        Linalg.Csr.iter_row (Markov.Ctmc.rates chain) s (fun s' rate ->
            if target.(s') then hit := !hit +. rate);
        let jump_prob = !hit /. exit in
        let rho = Markov.Mrm.reward ctx.mrm s in
        let reward_window =
          if rho > 0.0 then Some (Numerics.Time_interval.scale (1.0 /. rho) reward)
          else if Numerics.Time_interval.lower reward = 0.0 then
            (* Zero reward rate: the accumulated reward stays 0, which
               satisfies exactly the downward-closed reward intervals. *)
            Some Numerics.Time_interval.unbounded
          else None
        in
        let window =
          match reward_window with
          | None -> None
          | Some rw -> Numerics.Time_interval.intersect time rw
        in
        let sojourn_factor =
          match window with
          | None -> 0.0
          | Some w ->
            let at_lower = Float.exp (-.exit *. Numerics.Time_interval.lower w) in
            let at_upper =
              match Numerics.Time_interval.upper w with
              | None -> 0.0
              | Some b -> Float.exp (-.exit *. b)
            in
            at_lower -. at_upper
        in
        Numerics.Float_utils.clamp_prob (jump_prob *. sojourn_factor)
      end)

(* ------------------------------------------------------------------ *)
(* Steady state.                                                      *)

let steady_values ctx ~target =
  let chain = Markov.Mrm.ctmc ctx.mrm in
  let n = Markov.Ctmc.n_states chain in
  let g = Markov.Ctmc.graph chain in
  let scc = Graph.Scc.compute g in
  let bottoms = Graph.Scc.bottom_components g scc in
  let absorption = Markov.Steady.absorption_probabilities chain in
  let result = Linalg.Vec.create n in
  List.iteri
    (fun k comp ->
      let members = scc.Graph.Scc.members.(comp) in
      (* Stationary distribution inside the BSCC, as mass on the target. *)
      let full = Linalg.Vec.create n in
      List.iter (fun s -> full.{s} <- 1.0 /. float_of_int (List.length members))
        members;
      let pi =
        Markov.Steady.distribution chain ~init:full
      in
      let target_mass = Linalg.Vec.masked_sum pi target in
      Linalg.Vec.axpy ~alpha:target_mass ~x:absorption.(k) ~y:result)
    bottoms;
  Linalg.Vec.map Numerics.Float_utils.clamp_prob result

(* ------------------------------------------------------------------ *)
(* The until dispatch.                                                *)

let require_reward_from_zero reward =
  if not (Numerics.Time_interval.is_downward_closed reward) then
    raise
      (Unsupported
         "until with a reward interval not starting at 0: no computational \
          procedure is known (the open problem of the paper's Section 6)")

(* The paper's procedures (P0–P3, plus the time window) on one pair of
   masks, picked by the shape of the bounds. *)
let until_point memo ctx ~time ~reward ~phi ~psi =
  require_reward_from_zero reward;
  let t_lo = Numerics.Time_interval.lower time in
  if t_lo > 0.0 then begin
    match Numerics.Time_interval.upper reward with
    | Some _ ->
      raise
        (Unsupported
           "until combining a time-interval lower bound with a reward \
            bound: no computational procedure is known (the open problem \
            of the paper's Section 6)")
    | None ->
      until_time_window ctx ~phi ~psi ~t_lo
        ~t_hi:(Numerics.Time_interval.upper time)
  end
  else
    match
      Numerics.Time_interval.upper time, Numerics.Time_interval.upper reward
    with
    | None, None -> until_unbounded ctx ~phi ~psi
    | Some t, None -> until_time_bounded ctx ~phi ~psi ~time_bound:t
    | None, Some r -> until_reward_bounded ctx ~phi ~psi ~reward_bound:r
    | Some t, Some r ->
      until_both_bounded memo ctx ~phi ~psi ~time_bound:t ~reward_bound:r

(* The until shapes an envelope bounds on an interval model: a reward
   interval from 0 and a time interval [0, t].  Returns [t]. *)
let interval_time_bound time reward =
  require_reward_from_zero reward;
  if Numerics.Time_interval.lower time > 0.0 then
    raise
      (Unsupported
         "until with a time-interval lower bound over interval-valued \
          models is not implemented");
  match Numerics.Time_interval.upper time with
  | Some t -> t
  | None ->
    raise
      (Unsupported
         "time-unbounded until over interval-valued models: the envelope \
          solver is a transient (uniformisation) procedure; give the until \
          a time bound")

(* ------------------------------------------------------------------ *)
(* The recursive Sat computation: one bottom-up traversal for both
   context kinds, every Sat-set and path value interned once per
   structurally distinct subformula in [memo].  Memoised arrays are
   shared internally (nothing in the traversal mutates an operand) and
   copied at the public boundary when the memo is the caller's.  Until
   is monotone in both arguments, so an envelope computed from the must
   sets below and the may sets above covers every resolution of the
   unknown states.                                                     *)

let rec sat_k memo ctx (phi : Logic.Ast.state_formula) : sat_set =
  memoize memo memo.sat_tbl memo.state_ids phi (fun () ->
      sat_compute memo ctx phi)

and sat_compute memo ctx (phi : Logic.Ast.state_formula) : sat_set =
  let n = Markov.Mrm.n_states ctx.mrm in
  match phi with
  | True -> point_set (Array.make n true)
  | False -> point_set (Array.make n false)
  | Ap a -> point_set (Markov.Labeling.sat ctx.labeling a)
  | Not f -> lift1 not (swap (sat_k memo ctx f))
  | And (f, g) ->
    let sf = sat_k memo ctx f and sg = sat_k memo ctx g in
    lift2 ( && ) sf sg
  | Or (f, g) ->
    let sf = sat_k memo ctx f and sg = sat_k memo ctx g in
    lift2 ( || ) sf sg
  | Implies (f, g) ->
    let sf = sat_k memo ctx f and sg = sat_k memo ctx g in
    lift2 (fun x y -> (not x) || y) (swap sf) sg
  | Prob (cmp, p, path) -> threshold cmp p (path_k memo ctx path)
  | Steady (cmp, p, f) ->
    refuse_interval ctx
      "steady-state operators over interval-valued models: bounding BSCC \
       stationary distributions over rate intervals is not implemented";
    threshold cmp p
      (point_value (steady_values ctx ~target:(sat_k memo ctx f).must))
  | Reward (cmp, c, q) ->
    refuse_interval ctx
      "expected-reward operators over interval-valued models are not \
       implemented";
    threshold cmp c (point_value (reward_values memo ctx q))

and reward_values memo ctx (q : Logic.Ast.reward_query) : Linalg.Vec.t =
  match q with
  | Logic.Ast.Cumulative t ->
    Markov.Expected_reward.cumulative_all ~epsilon:ctx.epsilon ctx.mrm ~t
  | Logic.Ast.Reach f ->
    Markov.Expected_reward.reachability ~tol:(ctx.epsilon /. 10.0) ctx.mrm
      ~goal:(sat_k memo ctx f).must
  | Logic.Ast.Long_run ->
    Markov.Expected_reward.steady_rate_all ctx.mrm

and path_k memo ctx (path : Logic.Ast.path_formula) : Robust.Envelope.result =
  memoize memo memo.path_tbl memo.path_ids path (fun () ->
      path_compute memo ctx path)

and path_compute memo ctx (path : Logic.Ast.path_formula)
    : Robust.Envelope.result =
  match path with
  | Next (time, reward, f) ->
    refuse_interval ctx
      "next over interval-valued models: the jump probability and the \
       sojourn factor share each rate, so the per-transition optimum is \
       not separable; no envelope procedure is implemented";
    point_value
      (next_probabilities ctx ~time ~reward ~target:(sat_k memo ctx f).must)
  | Until (time, reward, f, g) -> (
      (* Interval models refuse what no envelope bounds before the
         operands are computed; zero width needs no envelope. *)
      let envelope =
        match ctx.imrm with
        | None -> None
        | Some imrm ->
          let time_bound = interval_time_bound time reward in
          if Robust.Imrm.is_point imrm then None else Some (imrm, time_bound)
      in
      let phi = sat_k memo ctx f and psi = sat_k memo ctx g in
      match envelope with
      | Some (imrm, time_bound) ->
        Telemetry.with_span ctx.telemetry "engine.robust-envelope" @@ fun () ->
        Robust.Envelope.until ~pool:ctx.pool ?telemetry:ctx.telemetry
          ?cancel:ctx.cancel ~epsilon:ctx.epsilon imrm ~phi_must:phi.must
          ~phi_may:phi.may ~psi_must:psi.must ~psi_may:psi.may ~time_bound
          ~reward_bound:(Numerics.Time_interval.upper reward)
      | None ->
        let solve phi psi = until_point memo ctx ~time ~reward ~phi ~psi in
        let lo = solve phi.must psi.must in
        if is_point_set phi && is_point_set psi then point_value lo
        else { lo; hi = solve phi.may psi.may })

let sat ctx phi =
  require_precise ctx "boolean Sat-sets";
  (sat_k (create_memo ()) ctx phi).must

let path_probabilities ctx path =
  require_precise ctx "point path probabilities";
  (path_k (create_memo ()) ctx path).lo

let holds ctx phi s =
  let mask = sat ctx phi in
  if s < 0 || s >= Array.length mask then
    invalid_arg "Checker.holds: state out of range";
  mask.(s)

let robust_sat ctx phi = tri_array (sat_k (create_memo ()) ctx phi)

type verdict =
  | Boolean of bool array
  | Numeric of Linalg.Vec.t
  | Three_valued of tri array
  | Interval of Robust.Envelope.result

let eval_query ?memo ctx q =
  Telemetry.with_span ctx.telemetry "checker.eval_query" @@ fun () ->
  let shared = Option.is_some memo in
  let memo = match memo with Some m -> m | None -> create_memo () in
  let robust = ctx.imrm <> None in
  let verdict =
    match q with
    | Logic.Ast.Formula f ->
      let s = sat_k memo ctx f in
      if robust then Three_valued (tri_array s) else Boolean s.must
    | Logic.Ast.Prob_query path ->
      let v = path_k memo ctx path in
      if robust then Interval v else Numeric v.lo
    | Logic.Ast.Steady_query f ->
      refuse_interval ctx
        "steady-state queries over interval-valued models: bounding BSCC \
         stationary distributions over rate intervals is not implemented";
      Numeric (steady_values ctx ~target:(sat_k memo ctx f).must)
    | Logic.Ast.Reward_query q ->
      refuse_interval ctx
        "expected-reward queries over interval-valued models are not \
         implemented";
      Numeric (reward_values memo ctx q)
    | Logic.Ast.Frontier_query _ ->
      (* A frontier is a set of points, not a per-state vector; the sweep
         driver (Batch.Frontier) decomposes it into Prob_query probes. *)
      raise
        (Unsupported
           "frontier queries are evaluated by the frontier sweep \
            (csrl-check --frontier, the batch file format, or the serving \
            daemon), not by a single checker solve")
  in
  (* A caller's memo may hold (or alias) the verdict's arrays; hand the
     caller a private copy so the tables cannot be corrupted. *)
  if not shared then verdict
  else
    match verdict with
    | Boolean mask -> Boolean (Array.copy mask)
    | Numeric v -> Numeric (Linalg.Vec.copy v)
    | Three_valued _ -> verdict
    | Interval e ->
      Interval
        { Robust.Envelope.lo = Linalg.Vec.copy e.Robust.Envelope.lo;
          hi = Linalg.Vec.copy e.Robust.Envelope.hi }
