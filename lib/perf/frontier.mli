(** Two-cost Pareto frontiers for the bounded until.

    The until probability [p(t, r) = P(Phi U[<=t][<=r] Psi)] is monotone
    nondecreasing in both the time bound [t] and the reward bound [r]
    (enlarging either bound only admits more satisfying paths), so the
    satisfying region [{(t, r) : p(t, r) >= target}] is upward closed and
    its boundary [r*(t) = min { r : p(t, r) >= target }] is nonincreasing
    in [t].  {!sweep} resolves that boundary on a fixed time grid by
    divide-and-conquer bisection over the reward axis, using the already
    resolved neighbours as brackets; {!probe} is the 1-point degenerate
    case (one bisection along a single axis) that answers the serving
    daemon's [quantile] requests.

    This module is a pure search: it knows nothing about models or
    engines.  Callers supply [eval], typically a warm-context
    [Checker.eval_query] whose Sat-set, Theorem-1/until, reduction and
    Fox–Glynn caches are shared across every probe of the sweep. *)

type outcome = {
  value : float option;
      (** least satisfying bound, [None] when even [hi] falls short *)
  achieved : float;
      (** [eval] at the returned bound (at [hi] when [value = None]) *)
  evaluations : int;  (** solves performed *)
}

val probe :
  eval:(float -> float) -> target:float -> hi:float -> tolerance:float ->
  outcome
(** Deterministic bisection for the least [x] in [(0, hi]] with
    [eval x >= target]: at most [200] halvings, stopping when the bracket
    is narrower than [tolerance] (or no representable float remains
    between the endpoints).  [eval] must be monotone nondecreasing; the
    search never evaluates at [x = 0].  Raises [Invalid_argument] unless
    [hi > 0] is finite and [tolerance > 0]. *)

type point = {
  t : float;  (** time bound of this frontier point *)
  r : float;  (** minimal reward bound feasible at [t], within tolerance *)
  probability : float;  (** [eval ~t ~r] at exactly these coordinates *)
}

type sweep = {
  points : point list;
      (** the staircase: strictly increasing [t], strictly decreasing
          [r] — an antichain under componentwise dominance *)
  evaluations : int;  (** total [eval] calls across the whole sweep *)
}

val sweep :
  eval:(t:float -> r:float -> float) -> target:float -> time_bound:float ->
  reward_bound:float -> points:int -> tolerance:float -> sweep
(** Resolve the frontier on the grid [t_i = time_bound * (i+1) / points].

    The last grid row is resolved first over the full [(0, reward_bound]]
    range, then the first row, then recursively the midpoint of every
    unresolved span with the resolved neighbours as its reward bracket
    [(r*(t_right), r*(t_left)]] — monotonicity makes the bracket valid,
    and shrinking brackets make interior rows cheap.  Two certified
    shortcuts preserve the per-point error budget: a row whose lower
    bracket [rlo] already satisfies the target resolves to exactly [rlo]
    (its true minimum is [>= rlo] by monotonicity), and a row infeasible
    at the full reward budget makes every earlier (harder) row infeasible
    without further probes.

    Every emitted [probability] is the value [eval] actually returned at
    the emitted [(t, r)] — never an interpolation — so each point can be
    re-checked bit-for-bit by an independent cold solve.  Rows whose
    resolved reward ties an earlier row are dominated and dropped.

    Raises [Invalid_argument] unless [time_bound > 0] and
    [reward_bound > 0] are finite, [points >= 1] and [tolerance > 0]. *)
