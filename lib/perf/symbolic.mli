(** Checking CSRL until formulas directly on successor-backed models.

    A handle wraps a {!Explore.Succ.t} with its interned state space,
    shared across queries, so repeated checks on one model never
    re-discover states.  {!until} runs the sliding-window engine
    ({!Explore.Windowed}) with the Theorem 1 rewards-on-states
    classification — [Psi]-states absorb as GOAL,
    [not (Phi or Psi)]-states absorb as FAIL, both with reward zero — so
    only [Phi and not Psi] states ever occupy the window.  The checker
    reaches it through a program context ({!Checker.make_program}),
    whose memo caches answers by formula structure and which decides
    thresholds on the certified interval; {!eval} is the same solve
    without the checker.

    Supported: time- and reward-bounded until with propositional
    operands, a zero lower time bound and a finite upper one, answered
    at the initial state.  Nested probabilistic operators in the
    operands and lower bounds raise {!Unsupported} with a one-line
    reason.  There is no state enumeration to prune or quotient, so the
    explicit reduction pipeline ({!Reduction}) never runs here.

    When the reward bound is active inside the window (the certification
    [rho_max *. t <= r] fails), the until falls back to Theorem 1 on the
    {e materialised} model: the space is explored to closure (capped;
    {!Unsupported} beyond the cap) and the occupation-time engine solves
    the reduced problem at the same epsilon.  The fallback is counted on
    [explore.reward_fallbacks]. *)

exception Unsupported of string

type answer = {
  value : float;   (** midpoint of the certified interval *)
  delta : float;   (** half-width, [<= epsilon] *)
  lower : float;
  upper : float;
  stats : Explore.Windowed.stats option;
      (** window statistics; [None] when the occupation-time fallback
          produced the answer *)
  fallback : bool;
}

type outcome =
  | Boolean of bool
      (** never produced: {!eval} refuses propositional formulas (a
          program context answers them); kept because
          benchmark/gcm_window.ml matches on it *)
  | Numeric of answer

type t

val create : Explore.Succ.t -> t
(** A fresh handle with an empty space (initial state interned as id
    [0]). *)

val space : t -> Explore.Space.t

val n_states : t -> int
(** States interned so far — grows monotonically across queries. *)

val initial_labeling : t -> Markov.Labeling.t
(** A one-state labeling: every proposition of the program, labelling
    state [0] where it holds at the initial state. *)

val until :
  ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t ->
  epsilon:float ->
  t ->
  Numerics.Time_interval.t ->
  Numerics.Time_interval.t ->
  Logic.Ast.state_formula ->
  Logic.Ast.state_formula ->
  answer
(** [until ~epsilon t time reward phi psi]: the probability of
    [phi U[time][reward] psi] from the initial state, certified to
    [\[lower, upper\]] with [upper - lower <= 2 epsilon].  A window
    or a materialised twin holds at most [10^6] states.  Holds the
    handle's lock for the whole solve, so queries on one handle may
    be evaluated from several domains.  Raises {!Unsupported} for
    shapes outside the fragment, {!Markov.Labeling.Unknown_proposition}
    for unknown atoms, and [Invalid_argument] unless
    [0 < epsilon < 1]; {!Lang.Gcm.Runtime_error}-style exceptions
    propagate from the model's own closures. *)

val eval :
  ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t ->
  ?epsilon:float ->
  t ->
  Logic.Ast.query ->
  outcome
(** A [P=?] until query as {!until} ([epsilon] defaults to [1e-9]),
    always [Numeric].  Raises {!Unsupported} for every other query. *)
