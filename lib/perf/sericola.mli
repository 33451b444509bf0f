(** Sericola's occupation-time distribution algorithm (Section 4.4 of the
    paper; B. Sericola, "Occupation times in Markov processes", Stochastic
    Models 16(5), 2000, Theorem 5.6).

    Let [rho_0 = 0 < rho_1 < ... < rho_m] be the distinct reward levels.
    For [r] in the band [\[rho_{h-1} t, rho_h t)] and
    [x = (r - rho_{h-1} t) / ((rho_h - rho_{h-1}) t)],

    [H_ij(t,r) = Pr{Y_t > r, X_t = j | X_0 = i}
      = sum_n poi(lambda t, n)
          sum_{k=0..n} C(n,k) x^k (1-x)^{n-k} C(h,n,k)_ij]

    where the matrices [C(h,n,k)] obey row-block recursions in the
    uniformised chain [P] (spelled out in DESIGN.md and verified against
    brute-force path integration in the tests).  The Poisson series is
    truncated at the [N_epsilon] of {!Numerics.Poisson}, giving the a
    priori error bound that distinguishes this method from the other two.

    Because the recursions are linear in the rows, multiplying on the right
    by the goal-set indicator turns the matrix recursion into a vector
    recursion — [O(m N |S|)] memory instead of the paper's
    [O(N^2 |S|)]-per-layer matrices.  {!solve} uses the vector form; the
    full matrix [H(t,r)] remains available through {!joint_matrix} (and is
    what the ablation bench compares against).

    Entry [i] of the vector [c(h,n,k) = C(h,n,k) . 1_goal] is the
    coefficient for initial state [i], so one recursion answers every
    initial state at once: {!solve_rows}.  Every entry point runs the
    same recursion, stored in flat state-major arrays (DESIGN.md). *)

type detail = {
  probability : float;  (** [Pr{Y_t <= r, X_t in S'}] *)
  steps : int;          (** [N_epsilon], the Poisson truncation point *)
  band : int;           (** the band index [h] used, [0] if degenerate *)
  x : float;            (** the normalised position in the band *)
  transient_mass : float;  (** [Pr{X_t in S'}] (no reward bound) *)
  tail_mass : float;    (** [Pr{Y_t > r, X_t in S'}] *)
}

val solve_detailed :
  ?epsilon:float -> ?pool:Parallel.Pool.t -> ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t -> Problem.t -> detail
(** [epsilon] (default [1e-12]) is the Poisson truncation error bound.
    [pool] parallelises the layer recursion across its domains: each
    layer is partitioned by state (a state's products and its band
    interpolation only write that state's slice), every cell of the
    recursion is written exactly once by the same expression as in the
    sequential sweep, so the result is bit-identical for every pool
    size.

    [telemetry] records the counters [sericola.layers] and
    [sericola.cells] (blocks of the [C(h,n,k)] recursion actually
    computed), the gauges [sericola.bands], [sericola.band], [sericola.x],
    [sericola.epsilon] (requested) and [sericola.achieved_epsilon] (the
    Poisson mass left out by the truncation, as a fraction of the Poisson
    window's summed mass — an a-posteriori bound on the series error; it
    is at most the requested [epsilon] up to the rounding of those sums,
    about 1e-16), plus the
    [fox_glynn.*] and [uniformisation.*] measurements of the embedded
    transient solve.  Recording only observes the computation.

    [cancel] is polled once per layer of the [C(h,n,k)] recursion (and
    once per step of the embedded transient solve), so a fired token
    aborts with {!Numerics.Cancel.Cancelled} within one layer.  An
    unfired token never changes a result. *)

val solve :
  ?epsilon:float -> ?pool:Parallel.Pool.t -> ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t -> Problem.t -> float
(** Just the probability. *)

val solve_rows :
  ?epsilon:float -> ?pool:Parallel.Pool.t -> ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t -> Problem.t -> rows:int array -> float array
(** [solve_rows p ~rows] is, for every state [b] of [rows], the
    probability {!solve} returns from the unit initial distribution at
    [b] — bit for bit — computed from {e one} [C(h,n,k)] recursion.  Each
    row accumulates [weight . png_b] and [bin_k . c(h,n,k)_b] in exactly
    the order {!solve} accumulates [weight . (init . png)] and
    [bin_k . (init . c(h,n,k))], and [Linalg.Vec.dot (unit b) v] is
    [v.{b}] exactly.  The initial distribution of [p] is ignored.  In the
    degenerate case [r >= rho_max * t] each row is a separate transient
    solve, as in {!solve}.  Telemetry counts the one recursion.  Raises
    [Invalid_argument] on a row outside the state space. *)

val solve_many :
  ?epsilon:float -> ?pool:Parallel.Pool.t -> ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t -> Problem.t -> reward_bounds:float array ->
  float array
(** [solve_many p ~reward_bounds] evaluates [Pr{Y_t <= r_i, X_t in S'}]
    for every bound in one pass: the [C(h,n,k)] recursion is independent
    of [r], so the whole performability {e distribution curve} (Meyer's
    measure over many thresholds) costs barely more than a single point.
    The problem's own reward bound is ignored; entries may lie in
    different bands. *)

val joint_matrix :
  ?epsilon:float -> ?pool:Parallel.Pool.t -> ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t ->
  Markov.Mrm.t -> t:float -> r:float -> float array array
(** [joint_matrix m ~t ~r] is the full matrix [H(t,r)] with
    [H.(i).(j) = Pr{Y_t > r, X_t = j | X_0 = i}].  Requires [t > 0] and
    [r >= 0]; entries are exactly [0.] when [r] is at or above
    [rho_max * t]. *)
