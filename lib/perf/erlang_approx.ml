let expanded_ctmc (p : Problem.t) ~phases =
  if phases < 1 then invalid_arg "Erlang_approx: phases must be >= 1";
  let r = p.Problem.reward_bound in
  if r <= 0.0 then
    invalid_arg "Erlang_approx: the reward bound must be positive";
  let m = p.Problem.mrm in
  let n = Markov.Mrm.n_states m in
  (* An impulse can spend the budget exactly, which the metered phases
     cannot record (the meter's last advance exhausts it).  So a model
     with impulses gets one more phase per state, phase k "at the
     bound", indexed after the metered ones; the sink stays last. *)
  let at_bound = Markov.Mrm.has_impulses m in
  let sink = if at_bound then (n * phases) + n else n * phases in
  let index s i = if i = phases then (n * phases) + s else (s * phases) + i in
  let triples = ref [] in
  (* Chain moves keep the phase, except that an impulse reward on the
     transition advances the meter by round(iota * k / r) phases at once
     (the meter's discretisation of the instantaneous jump).  Landing on
     phase k keeps the path within budget, but only in a state without
     rate reward: any time spent in one would take it past r.  Running
     past phase k exhausts the budget. *)
  Linalg.Csr.iter (Markov.Ctmc.rates (Markov.Mrm.ctmc m)) (fun s s' rate ->
      let jump =
        let iota = Markov.Mrm.impulse m s s' in
        if iota = 0.0 then 0
        else int_of_float (Float.round (iota *. float_of_int phases /. r))
      in
      let move i =
        let j = i + jump in
        let target =
          if j < phases then index s' j
          else if j = phases && Markov.Mrm.reward m s' = 0.0 then index s' j
          else sink
        in
        triples := (index s i, target, rate) :: !triples
      in
      for i = 0 to phases - 1 do
        move i
      done;
      if at_bound then move phases);
  (* The reward meter: phase advances at rate rho(s) * k / r. *)
  Linalg.Vec.iteri
    (fun s rho ->
      if rho > 0.0 then begin
        let meter_rate = rho *. float_of_int phases /. r in
        for i = 0 to phases - 2 do
          triples := (index s i, index s (i + 1), meter_rate) :: !triples
        done;
        triples := (index s (phases - 1), sink, meter_rate) :: !triples
      end)
    (Markov.Mrm.rewards m);
  Markov.Ctmc.of_transitions ~n:(sink + 1) !triples

let solve ?(epsilon = 1e-12) ?pool ?telemetry ?cancel ~phases
    (p : Problem.t) =
  let chain = expanded_ctmc p ~phases in
  let n = Markov.Mrm.n_states p.Problem.mrm in
  let total = Markov.Ctmc.n_states chain in
  let at_bound = total > (n * phases) + 1 in
  Telemetry.record telemetry "erlang.phases" (float_of_int phases);
  Telemetry.record telemetry "erlang.expanded_states" (float_of_int total);
  let init = Linalg.Vec.create total in
  Linalg.Vec.iteri (fun s mass -> init.{s * phases} <- mass) p.Problem.init;
  let goal = Array.make total false in
  Array.iteri
    (fun s in_goal ->
      if in_goal then begin
        for i = 0 to phases - 1 do
          goal.((s * phases) + i) <- true
        done;
        if at_bound then goal.((n * phases) + s) <- true
      end)
    p.Problem.goal;
  Markov.Transient.reachability ~epsilon ?pool ?telemetry ?cancel chain
    ~init ~goal ~t:p.Problem.time_bound
