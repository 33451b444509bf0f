(** Sliding-window truncated uniformisation over a successor-function
    model (after Hahn–Hermanns–Wimmer–Becker's layered truncation for
    grids, crowds and viruses).

    The engine runs the standard uniformisation series
    [sum_n poi_n (alpha P^n)] but keeps the iterate as a sparse
    distribution over an {e active window} of interned states: each step
    expands only the states currently carrying mass, and — when
    truncation is on — drops states whose probability falls below a
    per-step budget.  Every unit of dropped mass, and the Poisson mass
    outside the Fox–Glynn window, is accumulated into a certified error
    bound: dropping mass can only {e lose} future contributions to the
    (nonnegative) answer, so the computed sum is a lower bound and the
    true value lies in [\[lower, lower + dropped + tail\]].

    Error accounting: the Fox–Glynn window is built with budget
    [epsilon / 2] and the per-step drop budget is
    [epsilon / 2 / (right + 1)] split evenly over the states touched in
    the step, so the total uncounted mass is at most [epsilon] and the
    reported half-width [delta] is at most [epsilon / 2 <= epsilon] by
    construction — no a-posteriori check can fail, but one is made
    anyway, falling back to a full (untruncated) expansion if it ever
    did.  A run that reports [mass_dropped = 0.] performs exactly the
    floating-point operations of the untruncated run, so the two results
    are bit-identical.

    The uniformisation rate is discovered on the fly: the run starts
    from the initial states' exit rates and restarts with a larger rate
    (geometrically, so restarts are logarithmic) whenever an expanded
    state exceeds it; [?rate] short-circuits this for callers that know
    a bound (e.g. wrapped explicit models).

    Reward bounds are certified on the fly by Theorem 1 rewards-on-
    states reasoning: every retained path only visits states that were
    in the window, so if [rho_max * t <= r] for the maximal reward
    [rho_max] over all windowed transient states, no retained path can
    exceed the bound and the answer equals the transient value; paths
    leaving the window are already covered by [delta].  When the bound
    is {e active} ([rho_max * t > r]) the engine stops and reports
    {!Reward_bound_active}; the caller falls back to an explicit
    occupation-time solve on the materialised state space.

    Determinism: the window is kept sorted by the rank at which the
    solve first saw each state (as an initial state, or as a successor
    of a state it visited), not by the state's id in the {!Space.t}, and
    every accumulation walks it in that order.  The result is a function
    of the model and the arguments alone: a warm space (one that earlier
    solves filled in another order) gives bit-identical answers and
    statistics to a cold one.  On a cold space ranks and ids coincide.

    Cost: a uniformisation step allocates nothing.  A state's first
    visit in a solve may expand it ({!Space.expand}) and grow the
    solve's id-indexed scratch, which doubles as the space grows. *)

type class_ =
  | Transient of { counts : bool }
      (** a windowed state; [counts] adds its mass to the answer (the
          goal set of an instant-of-time problem) *)
  | Absorb of { goal : bool }
      (** absorbing by construction (Theorem 1): mass flowing in is
          accumulated in a scalar — GOAL mass counts toward the answer
          forever, FAIL mass is discarded — and the state never enters
          the window *)

type stats = {
  peak_window : int;      (** high-water active-window size *)
  states_expanded : int;  (** distinct states expanded by this run *)
  mass_dropped : float;   (** total probability mass truncated *)
  iterations : int;       (** uniformisation steps executed *)
  rate : float;           (** uniformisation rate of the final run *)
  restarts : int;         (** rate-discovery restarts *)
}

type result = {
  value : float;    (** midpoint of [\[lower, upper\]], in [\[0,1\]] *)
  delta : float;    (** half-width; [<= epsilon] always *)
  lower : float;
  upper : float;
  epsilon : float;  (** the bound the run was asked for *)
  stats : stats;
}

type outcome =
  | Bounded of result
  | Reward_bound_active of { rho_max : float; stats : stats }
      (** the reward bound bites inside the window: [rho_max *. t > r];
          the windowed certification argument does not apply *)

val solve :
  ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t ->
  ?truncate:bool ->
  ?rate:float ->
  epsilon:float ->
  classify:(Succ.state -> class_) ->
  init:(Succ.state * float) list ->
  t:float ->
  reward_bound:float option ->
  Space.t ->
  outcome
(** [solve ~epsilon ~classify ~init ~t ~reward_bound space] runs the
    windowed series to time [t > 0] from the initial distribution
    [init] (weights must sum to [1] within [1e-9]).

    [truncate] (default [true]): [false] disables dropping — the full
    expansion fallback; [delta] then comes from the Fox–Glynn tail
    alone.  [rate] (validated [> 0]) seeds the uniformisation rate; a
    rate below some expanded state's exit rate still restarts.  Requires
    [0 < epsilon < 1].

    Telemetry: counters [explore.states_expanded], [explore.iterations],
    [explore.restarts]; gauges [explore.peak_window] (maximum across
    solves), [explore.mass_dropped], [explore.delta], [explore.rate];
    plus the [fox_glynn.*] measurements of the window used.  Recording
    never changes a computed value. *)
