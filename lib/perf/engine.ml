type spec =
  | Pseudo_erlang of { phases : int }
  | Discretize of { step : float }
  | Occupation_time of { epsilon : float }
  | Windowed of { epsilon : float }

let default = Occupation_time { epsilon = 1e-9 }

let name = function
  | Pseudo_erlang _ -> "pseudo-erlang"
  | Discretize _ -> "discretisation"
  | Occupation_time _ -> "occupation-time"
  | Windowed _ -> "windowed"

(* The windowed engine on an explicit problem: wrap the matrix as a
   successor function and run the sliding-window series, certifying the
   reward bound over the states that actually enter the window (a
   strictly sharper test than the global [reward_trivially_satisfied]).
   When the bound bites inside the window the certification argument
   fails and the solve falls back to the occupation-time engine. *)
let solve_windowed ?pool ?telemetry ?cancel ~epsilon (p : Problem.t) =
  let fallback () =
    Telemetry.add telemetry "explore.reward_fallbacks" 1;
    Sericola.solve ~epsilon ?pool ?telemetry ?cancel p
  in
  if Markov.Mrm.has_impulses p.Problem.mrm then fallback ()
  else begin
    let chain = Markov.Mrm.ctmc p.Problem.mrm in
    let n = Markov.Ctmc.n_states chain in
    let init = ref [] in
    for s = n - 1 downto 0 do
      let w = Linalg.Vec.get p.Problem.init s in
      if w > 0.0 then init := ([| s |], w) :: !init
    done;
    let first = match !init with (s, _) :: _ -> s.(0) | [] -> 0 in
    let succ =
      Explore.Succ.of_mrm p.Problem.mrm (Markov.Labeling.empty ~n) ~init:first
    in
    let space = Explore.Space.create succ in
    let classify s =
      Explore.Windowed.Transient { counts = p.Problem.goal.(s.(0)) }
    in
    let rate = Markov.Ctmc.max_exit_rate chain in
    let rate = if rate > 0.0 then rate else 1.0 in
    match
      Explore.Windowed.solve ?telemetry ?cancel ~rate ~epsilon ~classify
        ~init:!init ~t:p.Problem.time_bound
        ~reward_bound:(Some p.Problem.reward_bound) space
    with
    | Explore.Windowed.Bounded r -> r.Explore.Windowed.value
    | Explore.Windowed.Reward_bound_active _ -> fallback ()
  end

(* Sericola computes |S| m (N+1)(N+2)/2 cells, and its truncation point
   N grows with q = Lambda t.  The duality of Baier et al. (Theorem 1
   there) asks the same question on a model whose rates are divided by
   the rewards, with t and r swapped: it keeps |S|, the sparsity pattern
   and the level count m, and its q is r times the largest E(s)/rho(s).
   So the side with the smaller q runs fewer layers and cells.  The swap
   needs no impulses and a positive reward on every non-absorbing state
   (what [Duality.dual] checks), and it preserves the answer only in the
   Theorem 1 form: a goal state that can be left, or that earns reward,
   turns its time into reward on the other side.  One scan checks all of
   it and finds the dual's q.  A tie stays primal. *)
let dual_is_cheaper (p : Problem.t) =
  let mrm = p.Problem.mrm in
  let chain = Markov.Mrm.ctmc mrm in
  let rec scan s dual_rate =
    if s = Markov.Mrm.n_states mrm then Some dual_rate
    else
      let rho = Markov.Mrm.reward mrm s in
      if Markov.Ctmc.is_absorbing chain s then
        if p.Problem.goal.(s) && rho <> 0.0 then None
        else scan (s + 1) dual_rate
      else if p.Problem.goal.(s) || rho <= 0.0 then None
      else
        scan (s + 1)
          (Float.max dual_rate (Markov.Ctmc.exit_rate chain s /. rho))
  in
  p.Problem.reward_bound > 0.0
  && (not (Markov.Mrm.has_impulses mrm))
  &&
  match scan 0 0.0 with
  | None -> false
  | Some dual_rate ->
    p.Problem.reward_bound *. dual_rate
    < p.Problem.time_bound *. Markov.Ctmc.max_exit_rate chain

(* The side an occupation-time solve runs on.  The other procedures stay
   primal: their costs depend on t, r and their own knobs differently. *)
let choose_side ?telemetry spec p =
  match spec with
  | Occupation_time _ when dual_is_cheaper p ->
    Telemetry.add telemetry "sericola.dualised" 1;
    Problem.dual p
  | _ -> p

let dispatch ?pool ?telemetry ?cancel spec (p : Problem.t) =
  match spec with
  | Windowed { epsilon } -> solve_windowed ?pool ?telemetry ?cancel ~epsilon p
  | _ ->
    if Problem.reward_trivially_satisfied p then
      Markov.Transient.reachability ?pool ?telemetry ?cancel
        (Markov.Mrm.ctmc p.Problem.mrm)
        ~init:p.Problem.init ~goal:p.Problem.goal ~t:p.Problem.time_bound
    else
      match spec with
      | Pseudo_erlang { phases } ->
        Erlang_approx.solve ?pool ?telemetry ?cancel ~phases p
      | Discretize { step } ->
        Discretization.solve ?pool ?telemetry ?cancel ~step p
      | Occupation_time { epsilon } ->
        Sericola.solve ~epsilon ?pool ?telemetry ?cancel p
      | Windowed _ -> assert false

let solve ?pool ?telemetry ?cancel spec (p : Problem.t) =
  Telemetry.with_span telemetry ("engine." ^ name spec) @@ fun () ->
  dispatch ?pool ?telemetry ?cancel spec (choose_side ?telemetry spec p)

(* The side is chosen once, before the trivial-bound test: the rule reads
   only the model, the goal and the bounds, which every row shares, so
   each row runs on the side its own [solve] would pick. *)
let solve_rows ?pool ?telemetry ?cancel spec (p : Problem.t) ~rows =
  let p = choose_side ?telemetry spec p in
  let span () = Telemetry.with_span telemetry ("engine." ^ name spec) in
  match spec with
  | Occupation_time { epsilon }
    when not (Problem.reward_trivially_satisfied p) ->
    span () @@ fun () ->
    Sericola.solve_rows ~epsilon ?pool ?telemetry ?cancel p ~rows
  | _ ->
    Array.map
      (fun b ->
        span () @@ fun () ->
        dispatch ?pool ?telemetry ?cancel spec (Problem.from_state p b))
      rows

let of_string text =
  match String.split_on_char ':' text with
  | [ "sericola" ] | [ "occupation-time" ] -> Ok default
  | [ ("sericola" | "occupation-time"); eps ] -> begin
      match float_of_string_opt eps with
      | Some e when e > 0.0 && e < 1.0 -> Ok (Occupation_time { epsilon = e })
      | _ -> Error "occupation-time needs an epsilon in (0,1)"
    end
  | [ "erlang" ] -> Ok (Pseudo_erlang { phases = 256 })
  | [ "erlang"; k ] -> begin
      match int_of_string_opt k with
      | Some phases when phases >= 1 -> Ok (Pseudo_erlang { phases })
      | _ -> Error "erlang needs a positive phase count"
    end
  | [ "discretise" ] | [ "discretize" ] | [ "tijms-veldman" ] ->
    Ok (Discretize { step = 1.0 /. 64.0 })
  | [ ("discretise" | "discretize" | "tijms-veldman"); d ] -> begin
      match float_of_string_opt d with
      | Some step when step > 0.0 -> Ok (Discretize { step })
      | _ -> Error "discretise needs a positive step"
    end
  | [ "windowed" ] -> Ok (Windowed { epsilon = 1e-9 })
  | [ "windowed"; eps ] -> begin
      match float_of_string_opt eps with
      | Some e when e > 0.0 && e < 1.0 -> Ok (Windowed { epsilon = e })
      | _ -> Error "windowed needs an epsilon in (0,1)"
    end
  | _ ->
    Error
      (Printf.sprintf
         "unknown engine %S (try sericola[:eps], erlang[:k], discretise[:d], \
          windowed[:eps])"
         text)

let pp_spec ppf = function
  | Pseudo_erlang { phases } -> Format.fprintf ppf "pseudo-erlang(k=%d)" phases
  | Discretize { step } -> Format.fprintf ppf "discretisation(d=%g)" step
  | Occupation_time { epsilon } ->
    Format.fprintf ppf "occupation-time(eps=%g)" epsilon
  | Windowed { epsilon } -> Format.fprintf ppf "windowed(eps=%g)" epsilon
