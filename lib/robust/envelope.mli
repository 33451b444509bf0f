(** Lower/upper probability envelopes over imprecise MRMs.

    Robust value iteration in the uniformised chain: at every
    uniformisation step the rate of each transition is chosen inside its
    interval to minimise (lower envelope) or maximise (upper envelope)
    the one-step value update — exact for the rectangular uncertainty
    sets an {!Imrm.t} describes, since the per-state update is separable
    in the individual rates.  The per-step optimum ranges over
    time-inhomogeneous rate choices, a superset of the constant-rate
    models of the set, so every concrete model's answer lies inside the
    envelope.  Poisson mixing uses the same Fox–Glynn windows as the
    precise kernels, Kahan-summed; truncation is accounted
    conservatively (the mass outside the window is granted in full to
    the upper envelope and denied to the lower), and the solver's
    [epsilon] is additionally folded into the reported bounds as a
    safety margin so that answers of precise engines run at the same
    accuracy can never escape the envelope by mere truncation error.

    See DESIGN.md §19 for the construction and the soundness
    argument. *)

type result = {
  lo : Linalg.Vec.t;  (** per-state lower probability bounds *)
  hi : Linalg.Vec.t;  (** per-state upper probability bounds *)
}

val until :
  ?pool:Parallel.Pool.t ->
  ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t ->
  ?rate:float ->
  epsilon:float ->
  Imrm.t ->
  phi_must:bool array ->
  phi_may:bool array ->
  psi_must:bool array ->
  psi_may:bool array ->
  time_bound:float ->
  reward_bound:float option ->
  result
(** Envelopes of [Prob (s, Phi U^{<= time_bound}_{<= reward_bound} Psi)]
    for every state [s].

    [phi_must]/[psi_must] under-approximate and [phi_may]/[psi_may]
    over-approximate the argument Sat-sets (they coincide except under a
    robust checker whose nested verdicts carry [Unknown] states); the
    lower envelope is computed from the must sets, the upper from the
    may sets — until is monotone in both arguments, so the envelope
    stays sound for every resolution of the unknowns.

    With [reward_bound = Some r] the lower envelope restricts the path
    to Phi-states whose {e upper} reward endpoint keeps the accumulated
    reward under [r] along any time-[<= time_bound] prefix
    ([rho_hi s <= r / time_bound]) — every surviving path satisfies the
    reward bound outright — while the upper envelope relaxes the reward
    bound entirely.  When no reward interval can exceed the bound both
    coincide with the unrestricted robust until, so the bracket
    degrades gracefully and the envelopes of nested drifts stay nested.

    [rate] overrides the uniformisation rate (default: the largest
    upper exit-rate endpoint); it must dominate that value.  Passing a
    common rate to several solves makes envelope nesting exact, which
    the monotonicity tests exploit.

    A zero-width model ({!Imrm.is_point}) gets the same iteration and
    margins as any other, so its envelope brackets the precise answer
    instead of reproducing it.  The checker runs its precise procedures
    on such models and never calls this: that is what keeps a robust
    context over {!Imrm.point} bit-identical to a precise one.

    [pool], [telemetry] ([robust.*] counters under a [robust.envelope]
    span) and [cancel] follow the house conventions; pool-parallel runs
    are bit-identical to sequential ones (per-state writes only). *)
