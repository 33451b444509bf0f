type result = {
  lo : Linalg.Vec.t;
  hi : Linalg.Vec.t;
}

(* One envelope direction: robust value iteration in the uniformised
   chain.  [maximize] picks the upper rate endpoint exactly on the
   transitions whose one-step difference helps the bound (and the lower
   endpoint elsewhere) — the exact per-step optimum over a rectangular
   rate set, since the update is separable in the individual rates.  The
   chosen rates sum to at most the upper exit rate, which [lambda]
   dominates, so every step is a convex combination and values stay in
   [0, 1].  Fox–Glynn mixing is Kahan-accumulated per state; the mass
   outside the window is granted in full to the upper envelope and
   denied to the lower, and [epsilon] is folded in as a margin on both
   sides.  Goal states take the margin on the lower side too: precise
   engines answer with up to [epsilon] of Poisson mass truncated away
   even at goal states, so pinning them at exactly 1 would put those
   answers outside the envelope.  Absorbed non-goal states are exactly
   0 on every engine and take no margin. *)
let solve_dir ~pool ~telemetry ~cancel ~lambda ~epsilon ~maximize imrm ~phi
    ~psi ~time_bound =
  let n = Imrm.n_states imrm in
  let transient = Array.init n (fun s -> phi.(s) && not psi.(s)) in
  let exact s = if psi.(s) then 1.0 else 0.0 in
  let finish acc consumed =
    Linalg.Vec.init n (fun s ->
        if not transient.(s) then
          if psi.(s) && not maximize then Float.max 0.0 (1.0 -. epsilon)
          else exact s
        else if maximize then
          Float.min 1.0 (acc.{s} +. (1.0 -. consumed) +. epsilon)
        else Float.max 0.0 (acc.{s} -. epsilon))
  in
  let q = lambda *. time_bound in
  if not (q > 0.0) then
    Linalg.Vec.init n (fun s -> if psi.(s) then 1.0 else 0.0)
  else begin
    let fg = Numerics.Fox_glynn.compute ~q ~epsilon in
    Numerics.Fox_glynn.record telemetry fg;
    let u = ref (Linalg.Vec.init n exact) in
    let next = ref (Linalg.Vec.create n) in
    let acc = Linalg.Vec.create n in
    let comp = Linalg.Vec.create n in
    let steps = ref 0 in
    for k = 0 to fg.Numerics.Fox_glynn.right do
      if k >= fg.Numerics.Fox_glynn.left then begin
        let w = fg.Numerics.Fox_glynn.weights.(k - fg.Numerics.Fox_glynn.left) in
        let u = !u in
        for s = 0 to n - 1 do
          let y = (w *. u.{s}) -. comp.{s} in
          let t = acc.{s} +. y in
          comp.{s} <- t -. acc.{s} -. y;
          acc.{s} <- t
        done
      end;
      if k < fg.Numerics.Fox_glynn.right then begin
        Numerics.Cancel.check cancel;
        incr steps;
        let u' = !u and next' = !next in
        Parallel.Pool.parallel_for pool ~lo:0 ~hi:n (fun lo hi ->
            for s = lo to hi - 1 do
              if not transient.(s) then next'.{s} <- u'.{s}
              else begin
                let us = u'.{s} in
                let delta = ref 0.0 in
                for p = Imrm.row_start imrm s to Imrm.row_stop imrm s - 1 do
                  let d = u'.{Imrm.col_at imrm p} -. us in
                  let r =
                    if (d > 0.0) = maximize then Imrm.rate_hi_at imrm p
                    else Imrm.rate_lo_at imrm p
                  in
                  delta := !delta +. (r *. d)
                done;
                next'.{s} <-
                  Numerics.Float_utils.clamp_prob (us +. (!delta /. lambda))
              end
            done);
        let tmp = !u in
        u := !next;
        next := tmp
      end
    done;
    Telemetry.add telemetry "robust.steps" !steps;
    finish acc fg.Numerics.Fox_glynn.total
  end

let until ?pool ?telemetry ?cancel ?rate ~epsilon imrm ~phi_must ~phi_may
    ~psi_must ~psi_may ~time_bound ~reward_bound =
  Telemetry.with_span telemetry "robust.envelope" @@ fun () ->
  Telemetry.add telemetry "robust.envelopes" 1;
  let lambda =
    match rate with
    | Some r ->
      if r < Imrm.max_exit_hi imrm then
        invalid_arg
          "Envelope.until: rate must dominate every upper exit-rate \
           endpoint";
      r
    | None -> Imrm.max_exit_hi imrm
  in
  let pool = Option.value pool ~default:Parallel.Pool.sequential in
  (* With an active reward bound the lower envelope walks only through
     Phi-states that cannot violate it ([rho_hi <= r / t]: any path
     spending all of [0, t] on such states accumulates at most [r]),
     while the upper envelope drops the bound.  When every reward
     interval is bounded by [r / t] the restriction is a no-op and both
     coincide with the unrestricted robust until. *)
  let phi_lower =
    match reward_bound with
    | None -> phi_must
    | Some r ->
      let threshold =
        if time_bound > 0.0 then r /. time_bound else Float.infinity
      in
      Array.mapi
        (fun s keep -> keep && Imrm.reward_hi imrm s <= threshold)
        phi_must
  in
  let lo =
    Telemetry.with_span telemetry "robust.lower" @@ fun () ->
    solve_dir ~pool ~telemetry ~cancel ~lambda ~epsilon ~maximize:false imrm
      ~phi:phi_lower ~psi:psi_must ~time_bound
  in
  let hi =
    Telemetry.with_span telemetry "robust.upper" @@ fun () ->
    solve_dir ~pool ~telemetry ~cancel ~lambda ~epsilon ~maximize:true imrm
      ~phi:phi_may ~psi:psi_may ~time_bound
  in
  { lo; hi }
