(** Checking CSRL until formulas directly on successor-backed models.

    A handle wraps a {!Explore.Succ.t} with the query-independent warm
    layers: the interned state space (shared across queries, so repeated
    checks on one model never re-discover states) and a result memo
    keyed by the rendered query and epsilon.  Evaluation runs the
    sliding-window engine ({!Explore.Windowed}) with the Theorem 1
    rewards-on-states classification — [Psi]-states absorb as GOAL,
    [not (Phi or Psi)]-states absorb as FAIL, both with reward zero —
    so only [Phi and not Psi] states ever occupy the window.

    The explicit reduction pipeline ({!Reduction}) is deliberately
    bypassed for symbolic models — there is no state enumeration to
    prune or quotient; the bypass is recorded on the telemetry counter
    [reduction.symbolic_bypass] so batch reports stay honest about which
    models saw the pipeline.  Symbolic quotienting is future work.

    Supported queries: propositional state formulas (evaluated at the
    initial state), [P=?] and [P cmp p] over time- and reward-bounded
    until with propositional arguments, a zero lower time bound and a
    finite upper one.  Everything else — next, steady-state, expected
    reward, frontier, nested probabilistic operators, lower time/reward
    bounds — raises {!Unsupported} with a one-line reason.

    When the reward bound is active inside the window (the certification
    [rho_max *. t <= r] fails), evaluation falls back to Theorem 1 on
    the {e materialised} model: the space is explored to closure (capped;
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
  | Boolean of bool * answer option
      (** verdict at the initial state; the answer is present when a
          probability was computed on the way *)
  | Numeric of answer

type t

val create : Explore.Succ.t -> t
(** A fresh handle with an empty space (initial state interned) and an
    empty memo. *)

val space : t -> Explore.Space.t

val n_states : t -> int
(** States interned so far — grows monotonically across queries. *)

val memo_size : t -> int

val eval :
  ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t ->
  ?epsilon:float ->
  ?limit:int ->
  t ->
  Logic.Ast.query ->
  outcome
(** Evaluate a query at the model's initial state.  [epsilon] (default
    [1e-9]) is the certified half-width target; [limit] (default
    [1_000_000]) caps window size and materialisation.  Results are
    memoised per (query, epsilon); hits are counted on
    [explore.memo_hits] and never recompute.  Raises {!Unsupported} for
    queries outside the fragment, {!Markov.Labeling.Unknown_proposition}
    for unknown atoms, and {!Lang.Gcm.Runtime_error}-style exceptions
    propagate from the model's own closures. *)
