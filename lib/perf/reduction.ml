(* The quotient-and-prune reduction pipeline.  See reduction.mli for the
   exactness arguments; the implementation invariant that matters here is
   that every stage either fires (and then changes the model) or returns
   its input *physically unchanged*, so a run in which no stage fires is
   bit-identical to not having the pipeline at all. *)

type stats = {
  states_before : int;
  states_after : int;
  pruned_states : int;
  lumped : bool;
}

type t = {
  reduced : Reduced.t;
  mrm : Markov.Mrm.t;
  map : int array;
  goal : bool array;
  stats : stats;
}

let goal_list goal =
  let acc = ref [] in
  for s = Array.length goal - 1 downto 0 do
    if goal.(s) then acc := s :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Stage 1: merge the goal-unreachable region into one absorbing sink.

   The region R = {s | GOAL unreachable from s} is closed under
   successors, so a path that enters R never leaves it and never reaches
   the goal: it contributes 0 to Pr{Y_t <= r, X_t in GOAL} regardless of
   the reward it accumulates.  Replacing R by a single absorbing
   zero-reward sink therefore changes no answer.  Requires |R| >= 2 to
   fire: with one region state (the amalgamated FAIL state is always
   goal-unreachable) there is nothing to merge, and firing would break
   the no-op bit-identity promise on asymmetric models. *)

let merge_goal_unreachable mrm ~goal =
  let chain = Markov.Mrm.ctmc mrm in
  let n = Markov.Mrm.n_states mrm in
  let can_reach =
    Graph.Reach.backward (Markov.Ctmc.graph chain) (goal_list goal)
  in
  let doomed = ref 0 in
  Array.iter (fun b -> if not b then incr doomed) can_reach;
  if !doomed < 2 then None
  else begin
    let map = Array.make n (-1) in
    let kept = ref 0 in
    for s = 0 to n - 1 do
      if can_reach.(s) then begin
        map.(s) <- !kept;
        incr kept
      end
    done;
    let sink = !kept in
    for s = 0 to n - 1 do
      if not can_reach.(s) then map.(s) <- sink
    done;
    let new_n = sink + 1 in
    (* Only surviving rows contribute: region-internal transitions map to
       a sink self-loop, which an absorbing sink must not have. *)
    let triples = ref [] in
    Linalg.Csr.iter (Markov.Ctmc.rates chain) (fun i j v ->
        if can_reach.(i) then triples := (map.(i), map.(j), v) :: !triples);
    let rewards = Array.make new_n 0.0 in
    let goal' = Array.make new_n false in
    for s = 0 to n - 1 do
      if can_reach.(s) then begin
        rewards.(map.(s)) <- Markov.Mrm.reward mrm s;
        if goal.(s) then goal'.(map.(s)) <- true
      end
    done;
    let merged = Markov.Mrm.of_transitions ~n:new_n !triples ~rewards in
    Some (merged, map, goal', !doomed - 1)
  end

(* ------------------------------------------------------------------ *)
(* Stage 2: ordinary-lumpability quotient.  The initial partition is
   (goal membership, reward rate) — Lumping.compute refines (label set,
   reward), so a one-proposition labeling marking the goal states seeds
   exactly the (Sat Psi, rho) split the exactness argument needs; the
   Phi information is already encoded structurally by the Theorem 1
   absorption that ran before this pipeline. *)

let lump_quotient mrm ~goal =
  let n = Markov.Mrm.n_states mrm in
  let labeling = Markov.Labeling.make ~n [ ("goal", goal_list goal) ] in
  let l = Markov.Lumping.compute mrm labeling in
  if l.Markov.Lumping.n_blocks = n then None
  else begin
    let goal' = Array.make l.Markov.Lumping.n_blocks false in
    Array.iteri
      (fun s b -> if goal.(s) then goal'.(b) <- true)
      l.Markov.Lumping.block_of_state;
    Some (l.Markov.Lumping.quotient, l.Markov.Lumping.block_of_state, goal')
  end

(* ------------------------------------------------------------------ *)
(* Pipeline assembly.                                                  *)

let record_run telemetry stats =
  Telemetry.add telemetry "reduction.runs" 1;
  Telemetry.add telemetry "reduction.states_before" stats.states_before;
  Telemetry.add telemetry "reduction.states_after" stats.states_after;
  Telemetry.add telemetry "reduction.pruned_states" stats.pruned_states;
  Telemetry.add telemetry "reduction.lumped" (if stats.lumped then 1 else 0)

let prepare_on ?telemetry (red : Reduced.t) =
  let states_before = Markov.Mrm.n_states red.Reduced.mrm in
  let identity = Array.init states_before Fun.id in
  if Markov.Mrm.has_impulses red.Reduced.mrm then
    { reduced = red; mrm = red.Reduced.mrm; map = identity;
      goal = red.Reduced.goal;
      stats =
        { states_before; states_after = states_before; pruned_states = 0;
          lumped = false } }
  else
    Telemetry.with_span telemetry "reduction.prepare" @@ fun () ->
    let mrm, map, goal, pruned_states =
      match merge_goal_unreachable red.Reduced.mrm ~goal:red.Reduced.goal with
      | None -> (red.Reduced.mrm, identity, red.Reduced.goal, 0)
      | Some stage -> stage
    in
    let mrm, map, goal, lumped =
      match lump_quotient mrm ~goal with
      | None -> (mrm, map, goal, false)
      | Some (quotient, block_of_state, goal) ->
        (quotient, Array.map (fun s -> block_of_state.(s)) map, goal, true)
    in
    let stats =
      { states_before; states_after = Markov.Mrm.n_states mrm; pruned_states;
        lumped }
    in
    record_run telemetry stats;
    { reduced = red; mrm; map; goal; stats }

let prepare ?telemetry m ~phi ~psi =
  prepare_on ?telemetry (Reduced.reduce m ~phi ~psi)

(* ------------------------------------------------------------------ *)
(* Per-problem init pruning: drop states unreachable from the support
   of the initial distribution.  Reachable states form a
   successor-closed set carrying all the probability mass, so the
   restriction is exact.  Skipped (input returned physically) when
   nothing is unreachable or the model carries impulses (the restricted
   impulse matrix is not worth rebuilding for a cost optimisation).
   Also returns the old -> new state index map of the kept states. *)

let restrict_to_reachable ?telemetry (p : Problem.t) =
  let mrm = p.Problem.mrm in
  if Markov.Mrm.has_impulses mrm then (p, Fun.id)
  else begin
    let n = Markov.Mrm.n_states mrm in
    let support = ref [] in
    for s = n - 1 downto 0 do
      if p.Problem.init.{s} > 0.0 then support := s :: !support
    done;
    let chain = Markov.Mrm.ctmc mrm in
    let reachable = Graph.Reach.forward (Markov.Ctmc.graph chain) !support in
    let dropped = ref 0 in
    Array.iter (fun b -> if not b then incr dropped) reachable;
    if !dropped = 0 then (p, Fun.id)
    else begin
      let map = Array.make n (-1) in
      let kept = ref 0 in
      for s = 0 to n - 1 do
        if reachable.(s) then begin
          map.(s) <- !kept;
          incr kept
        end
      done;
      let new_n = !kept in
      (* Reachability is successor-closed, so surviving rows only point at
         surviving states. *)
      let triples = ref [] in
      Linalg.Csr.iter (Markov.Ctmc.rates chain) (fun i j v ->
          if reachable.(i) then triples := (map.(i), map.(j), v) :: !triples);
      let rewards = Array.make new_n 0.0 in
      let goal = Array.make new_n false in
      let init = Linalg.Vec.create new_n in
      for s = 0 to n - 1 do
        if reachable.(s) then begin
          rewards.(map.(s)) <- Markov.Mrm.reward mrm s;
          goal.(map.(s)) <- p.Problem.goal.(s);
          init.{map.(s)} <- p.Problem.init.{s}
        end
      done;
      Telemetry.add telemetry "reduction.init_pruned_states" !dropped;
      let restricted = Markov.Mrm.of_transitions ~n:new_n !triples ~rewards in
      ( Problem.make restricted ~init ~goal ~time_bound:p.Problem.time_bound
          ~reward_bound:p.Problem.reward_bound,
        fun s -> map.(s) )
    end
  end

(* ------------------------------------------------------------------ *)
(* Until probabilities over a prepared pipeline.                       *)

type rows_solver = Problem.t -> rows:int array -> float array

(* The pipeline states that need a solve, grouped by the set of states
   reachable from them.  Two states share that set exactly when they lie
   in one strongly connected component, so the groups are the components
   the targets fall in, each listed in ascending state order; groups come
   in the order of their smallest target. *)
let reachable_set_groups r targets =
  if Array.length targets = 0 then [||]
  else begin
    let scc = Graph.Scc.compute (Markov.Ctmc.graph (Markov.Mrm.ctmc r.mrm)) in
    let members = Array.make scc.Graph.Scc.count [] in
    let order = ref [] in
    Array.iter
      (fun b ->
        let c = scc.Graph.Scc.component.(b) in
        if members.(c) = [] then order := c :: !order;
        members.(c) <- b :: members.(c))
      targets;
    Array.of_list
      (List.rev_map (fun c -> Array.of_list (List.rev members.(c))) !order)
  end

let until_rows_on r ?(pool = Parallel.Pool.sequential) ?telemetry
    (solve_rows : rows_solver) ~phi ~psi ~time_bound ~reward_bound =
  let n = Array.length r.reduced.Reduced.state_map in
  if Array.length phi <> n || Array.length psi <> n then
    invalid_arg "Reduction.until_rows_on: mask length mismatch";
  let n_pipe = Markov.Mrm.n_states r.mrm in
  let pipe_of s = r.map.(r.reduced.Reduced.state_map.(s)) in
  (* Distinct pipeline initial states that actually need a solve: states
     decided by the masks never touch the numerics, and amalgamation plus
     the quotient map many originals onto one pipeline state. *)
  let needed = Array.make n_pipe false in
  for s = 0 to n - 1 do
    if phi.(s) && not psi.(s) then needed.(pipe_of s) <- true
  done;
  let targets = ref [] in
  for b = n_pipe - 1 downto 0 do
    if needed.(b) then targets := b :: !targets
  done;
  let groups = reachable_set_groups r (Array.of_list !targets) in
  let solutions = Linalg.Vec.create n_pipe in
  (* One group per chunk: a solve dispatched to a busy pool runs its
     inner kernels inline — the exact sequential code — so the per-state
     answers are bit-identical to a sequential loop. *)
  Parallel.Pool.parallel_for ~cutoff:1 pool ~lo:0 ~hi:(Array.length groups)
    (fun lo hi ->
      for gi = lo to hi - 1 do
        let group = groups.(gi) in
        let problem =
          Problem.of_initial_state r.mrm ~init:group.(0) ~goal:r.goal
            ~time_bound ~reward_bound
        in
        let problem, reindex = restrict_to_reachable ?telemetry problem in
        let values = solve_rows problem ~rows:(Array.map reindex group) in
        Array.iteri (fun j b -> solutions.{b} <- values.(j)) group
      done);
  Linalg.Vec.init n (fun s ->
      if psi.(s) then 1.0
      else if not phi.(s) then 0.0
      else solutions.{pipe_of s})

(* A scalar solver answers rows one problem at a time. *)
let rows_of_scalar solve p ~rows =
  Array.map (fun b -> solve (Problem.from_state p b)) rows

let until_probabilities_on r ?pool ?telemetry solve =
  until_rows_on r ?pool ?telemetry (rows_of_scalar solve)
