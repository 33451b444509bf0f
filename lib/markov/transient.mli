(** Transient analysis by uniformisation (Jensen's randomisation,
    Gross & Miller).

    The distribution at time [t] is the Poisson([lambda t])-weighted mixture
    of the powers of the uniformised DTMC:
    [pi(t) = sum_n poi(lambda t, n) . pi(0) P^n].  The Poisson window comes
    from {!Numerics.Fox_glynn}, so the truncation error is below the
    requested [epsilon] in L1.

    All solvers accept [?stationary_detection]: when set, an iterate whose
    single-step L-infinity change falls below the given threshold is
    treated as stationary and the remaining Poisson mass is applied in one
    go — the standard shortcut for large [lambda t] horizons (the paper's
    Section 5.4 closes with exactly this wish for its longest series).
    It is a heuristic: pick thresholds well below the accuracy target.

    All solvers also accept [?pool]: the sparse matrix–vector product of
    every uniformisation step is then row-partitioned across the pool's
    domains.  Without a pool (or with {!Parallel.Pool.sequential}) the code
    path is exactly the sequential one, so results are bit-identical to
    earlier releases; with a pool of [>= 2] domains the forward
    (distribution) direction regroups floating-point additions and may
    differ from the sequential result by rounding.

    All solvers accept [?telemetry]: when set, each run records the
    Fox–Glynn window ([fox_glynn.*]), the counter
    [uniformisation.iterations] (matrix–vector products performed, the
    quantity Table 2 of the paper tabulates as [N_epsilon]),
    [uniformisation.stationary_cutoffs], and the gauges
    [uniformisation.q] and [uniformisation.rate].  Recording only
    observes the computation, so results are identical with and without
    it.

    All solvers accept [?cancel]: the token is polled once per
    uniformisation step, so a fired token aborts the series with
    {!Numerics.Cancel.Cancelled} within one matrix–vector product.  An
    unfired token never changes a result. *)

val distribution :
  ?epsilon:float -> ?rate:float -> ?stationary_detection:float ->
  ?pool:Parallel.Pool.t -> ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t -> Ctmc.t ->
  init:Linalg.Vec.t -> t:float -> Linalg.Vec.t
(** [distribution c ~init ~t] is the state distribution at time [t >= 0]
    starting from distribution [init].  [epsilon] (default [1e-12]) bounds
    the truncation error; [rate] overrides the uniformisation rate (it must
    dominate every exit rate).  Raises [Invalid_argument] for negative [t]
    or if [init] is not a distribution. *)

val distribution_many :
  ?epsilon:float -> ?rate:float -> ?pool:Parallel.Pool.t ->
  ?telemetry:Telemetry.t -> ?cancel:Numerics.Cancel.t -> Ctmc.t ->
  init:Linalg.Vec.t -> times:float list -> (float * Linalg.Vec.t) list
(** Transient distributions at several time points (times may be
    unsorted). *)

val reachability :
  ?epsilon:float -> ?stationary_detection:float -> ?pool:Parallel.Pool.t ->
  ?telemetry:Telemetry.t -> ?cancel:Numerics.Cancel.t ->
  Ctmc.t -> init:Linalg.Vec.t -> goal:bool array -> t:float -> float
(** Probability mass accumulated in the [goal] set at time [t]; the goal
    states are assumed absorbing by the caller (the P1 recipe of the
    paper's Section 3: make goal and illegal states absorbing, then read
    off the transient mass). *)

val backward :
  ?epsilon:float -> ?rate:float -> ?stationary_detection:float ->
  ?pool:Parallel.Pool.t -> ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t -> Ctmc.t ->
  terminal:Linalg.Vec.t -> t:float -> Linalg.Vec.t
(** [backward c ~terminal ~t] is the backward pass
    [sum_n poi(lambda t, n) P^n terminal]: entry [s] is the expectation of
    [terminal] under the state distribution at time [t] from [s].  With a
    {0,1} terminal vector this is {!reachability_all}; with an arbitrary
    vector it is the phase-1 step of interval-bounded until. *)

val reachability_all :
  ?epsilon:float -> ?rate:float -> ?stationary_detection:float ->
  ?pool:Parallel.Pool.t -> ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t -> Ctmc.t ->
  goal:bool array -> t:float -> Linalg.Vec.t
(** Backward uniformisation: entry [s] is the probability of sitting in the
    [goal] set at time [t] when starting from state [s] — i.e. one column
    pass [sum_n poi(lambda t, n) P^n 1_goal] computes the P1 recipe for
    {e every} initial state at once. *)
