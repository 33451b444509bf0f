(** Imprecise Markov reward models: interval-valued rates and rewards.

    Ground-truth rates are never exact — the paper's case study plugs in
    point estimates for failure and repair rates.  An [Imrm.t] replaces
    every transition rate by a closed interval [\[lo, hi\]] and every
    state reward by an interval, describing the (rectangular) set of all
    concrete MRMs obtained by picking one value per parameter.  The
    envelope solvers ({!Envelope}) then bound the checking answer over
    the whole set, following Termine et al., "Robust Model Checking with
    Imprecise Markov Reward Models".

    Impulse rewards are not representable: {!point} rejects models that
    carry them (the robust engine's capability flags say so). *)

type t

val make :
  n:int ->
  transitions:(int * int * float * float) list ->
  rewards:(float * float) array ->
  t
(** [make ~n ~transitions ~rewards] builds an imprecise MRM on states
    [0 .. n-1].  Each transition is [(src, dst, lo, hi)]; duplicate
    [(src, dst)] pairs are rejected, as are self-loops.  [rewards.(s)]
    is the reward-rate interval of state [s] (length must be [n]).
    Every interval needs [0 <= lo <= hi] with both endpoints finite;
    transitions with [hi = 0] are dropped.  Raises [Invalid_argument]
    with a one-line message otherwise. *)

val point : Markov.Mrm.t -> t
(** The zero-width injection: every interval is the singleton of the
    precise value.  The source model is retained, so {!point_model}
    returns it unchanged — that is what lets a robust checker context
    reproduce the precise engines bit for bit on point models.  Raises
    [Invalid_argument] on models with impulse rewards. *)

val of_mrm : ?reward_drift:float -> rate_drift:float -> Markov.Mrm.t -> t
(** [of_mrm ~rate_drift m] widens every rate [r] of [m] to
    [\[r * (1 - d), r * (1 + d)\]] with [d = rate_drift] — the uniform
    relative drift of the CLI's [--rate-drift].  [reward_drift]
    (default: equal to [rate_drift]) widens the reward rates the same
    way.  Drifts must lie in [\[0, 1)]; both zero reduces to {!point}.
    Raises [Invalid_argument] on impulse rewards or out-of-range
    drifts. *)

val n_states : t -> int
val n_transitions : t -> int

val is_point : t -> bool
(** All intervals have zero width. *)

val point_model : t -> Markov.Mrm.t
(** The unique concrete model of a point imrm (the retained source for
    {!point}/{!of_mrm}, otherwise realised from the interval endpoints).
    Raises [Invalid_argument] if {!is_point} is false. *)

val reward_lo : t -> int -> float
val reward_hi : t -> int -> float

val max_reward_hi : t -> float
(** Largest upper reward endpoint over all states. *)

val max_width : t -> float
(** Largest interval width over all rates and rewards — [0.] iff
    {!is_point}. *)

val exit_hi : t -> int -> float
(** Sum of the upper rate endpoints out of a state — the largest exit
    rate any concrete model in the set can give it. *)

val max_exit_hi : t -> float

val iter_row : t -> int -> (int -> float -> float -> unit) -> unit
(** [iter_row m s f] applies [f dst lo hi] to every rate interval out of
    [s], in ascending destination order. *)

val row_start : t -> int -> int
val row_stop : t -> int -> int
val col_at : t -> int -> int
val rate_lo_at : t -> int -> float
val rate_hi_at : t -> int -> float
(** Flat CSR-style walk over the stored intervals — the allocation-free
    path used by the envelope kernel's inner loop. *)

val midpoint : t -> Markov.Mrm.t
(** The concrete model at every interval's midpoint. *)

val realise : (float -> float -> float) -> t -> Markov.Mrm.t
(** [realise pick m] builds the concrete MRM choosing [pick lo hi] for
    every rate and reward interval.  [pick] must return a value inside
    the interval; this is checked. *)

val sample : Random.State.t -> t -> Markov.Mrm.t
(** A concrete model drawn uniformly at random from the uncertainty set
    (independently per interval) — the Monte-Carlo perturbation oracle
    of the tests and the bench containment sweep. *)

val pp : Format.formatter -> t -> unit
