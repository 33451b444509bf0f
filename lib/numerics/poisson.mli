(** Poisson distribution, computed stably for large means.

    Uniformisation expresses CTMC transients as Poisson-weighted sums over a
    discrete-time chain; the weights here are the workhorse of every
    algorithm in this library. *)

val log_pmf : lambda:float -> int -> float
(** [log_pmf ~lambda n] is [ln (e^-lambda lambda^n / n!)].
    Requires [lambda >= 0] and [n >= 0]. *)

val pmf : lambda:float -> int -> float
(** Probability mass at [n]; may underflow to [0.] far in the tails, which
    is benign for the truncated sums used here. *)

val cdf : lambda:float -> int -> float
(** [cdf ~lambda n] is [P(N <= n)], by direct stable summation from the
    mode outwards; terms below [Float.min_float] are left out. *)

val right_truncation_point : lambda:float -> epsilon:float -> int
(** [right_truncation_point ~lambda ~epsilon] is the smallest [n] with
    [P(N <= n) >= (1 - epsilon) W]: the number of uniformisation steps
    needed for truncation error at most [epsilon] (the [N_epsilon] of the
    paper's Section 4.4).  [W] is the summed mass of the computed pmf
    over its normal range (terms of at least [Float.min_float]), which
    rounding keeps off 1 — [1 - 9.7e-14] at [lambda = 117], [1 + 4e-13]
    at [lambda = 468] — so the bound is relative to the mass the weights
    actually carry, as Fox–Glynn's [W] normalises it, and every
    [epsilon] is reachable.  Requires [0 < epsilon < 1]. *)
