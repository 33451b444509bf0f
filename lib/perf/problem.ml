type t = {
  mrm : Markov.Mrm.t;
  init : Linalg.Vec.t;
  goal : bool array;
  time_bound : float;
  reward_bound : float;
}

let make mrm ~init ~goal ~time_bound ~reward_bound =
  let n = Markov.Mrm.n_states mrm in
  if Linalg.Vec.length init <> n then invalid_arg "Problem.make: init length";
  if Array.length goal <> n then invalid_arg "Problem.make: goal length";
  if not (Linalg.Vec.is_distribution ~tol:1e-9 init) then
    invalid_arg "Problem.make: init is not a distribution";
  if not (time_bound > 0.0 && Float.is_finite time_bound) then
    invalid_arg "Problem.make: time bound must be positive and finite";
  if not (reward_bound >= 0.0 && Float.is_finite reward_bound) then
    invalid_arg "Problem.make: reward bound must be non-negative and finite";
  { mrm; init = Linalg.Vec.copy init; goal = Array.copy goal;
    time_bound; reward_bound }

let of_initial_state mrm ~init ~goal ~time_bound ~reward_bound =
  let n = Markov.Mrm.n_states mrm in
  make mrm ~init:(Linalg.Vec.unit n init) ~goal ~time_bound ~reward_bound

let from_state p b =
  of_initial_state p.mrm ~init:b ~goal:p.goal ~time_bound:p.time_bound
    ~reward_bound:p.reward_bound

let dual p =
  if not (p.reward_bound > 0.0) then
    invalid_arg
      "Problem.dual: needs a positive reward bound (the dual's time bound)";
  { p with
    mrm = Markov.Duality.dual p.mrm;
    time_bound = p.reward_bound;
    reward_bound = p.time_bound }

let reward_trivially_satisfied p =
  (* With impulse rewards the accumulated reward has no a-priori cap (the
     number of jumps is unbounded), so nothing is trivially satisfied. *)
  (not (Markov.Mrm.has_impulses p.mrm))
  && Markov.Mrm.max_reward p.mrm *. p.time_bound <= p.reward_bound

let pp ppf p =
  Format.fprintf ppf
    "@[<v>reachability problem: t = %g, r = %g, |S| = %d, goal = {%a}@]"
    p.time_bound p.reward_bound
    (Markov.Mrm.n_states p.mrm)
    (fun ppf goal ->
      Array.iteri (fun s b -> if b then Format.fprintf ppf " %d" s) goal)
    p.goal
