(** The quotient-and-prune reduction pipeline.

    Runs after the Theorem 1 {!Reduced} step and before any numerical
    engine, shrinking the model three ways — each one exact:

    - {b Goal-unreachable pruning.}  States from which GOAL is
      unreachable form a successor-closed region; a path that enters it
      never reaches the goal, so its contribution to
      [Pr{Y_t <= r, X_t in GOAL}] is 0 no matter what reward it
      accumulates.  The whole region is merged into a single absorbing
      zero-reward sink (its tail mass is resolved analytically: it is
      zero).  Fires only when the region has at least two states — the
      amalgamated FAIL state alone is always goal-unreachable and
      merging a single state would change nothing.
    - {b Init pruning.}  States unreachable from the support of the
      initial distribution carry no mass at any time and are dropped
      (per reachable-set group of initial states, since the set varies
      with the initial state).
    - {b Ordinary-lumpability quotient} via {!Markov.Lumping}, seeded
      with the (goal membership, reward rate) partition.  The Sat Phi /
      Sat Psi split is already structural after Theorem 1 (GOAL and
      FAIL are absorbing and goal membership is part of the seed), and
      lumpability refines the reward partition, so the quotient
      preserves the joint distribution of [(Y_t, X_t in GOAL)] for any
      initial distribution — CSRL checking commutes with the quotient,
      and block values map back with {!Markov.Lumping.lower}.

    Transparency: the pipeline has no switch.  Every stage that does not
    fire returns its input {e physically unchanged}, so on models with no
    symmetry and no unreachable mass it is a strict no-op and answers are
    bit-identical to the unreduced solve; which stages run is decided
    from the input alone.  A [?telemetry] recorder receives
    [reduction.*] counters and a [reduction.prepare] span. *)

type stats = {
  states_before : int;  (** model size entering the pipeline *)
  states_after : int;   (** model size all engines will see *)
  pruned_states : int;  (** states removed by the goal-unreachable merge *)
  lumped : bool;        (** whether the quotient fired *)
}

type t = private {
  reduced : Reduced.t;  (** the Theorem 1 reduction this pipeline extends *)
  mrm : Markov.Mrm.t;   (** the model the engines solve *)
  map : int array;      (** reduced-space state -> pipeline state *)
  goal : bool array;    (** goal set in pipeline space *)
  stats : stats;
}

val prepare :
  ?telemetry:Telemetry.t -> Markov.Mrm.t -> phi:bool array ->
  psi:bool array -> t
(** {!Reduced.reduce} followed by {!prepare_on}: the one entry point of
    the pipeline (the batch cache stores its result per mask pair). *)

val prepare_on : ?telemetry:Telemetry.t -> Reduced.t -> t
(** Build the pipeline on an existing Theorem 1 reduction.  Models with
    impulse rewards pass through untouched: the quotient cannot
    represent per-transition impulses and the pruning stages are not
    worth a rebuilt impulse matrix. *)

type rows_solver = Problem.t -> rows:int array -> float array
(** [solve p ~rows] answers [p]'s question from the point mass at each
    state of [rows], ignoring [p]'s own initial distribution; for example
    [Engine.solve_rows spec]. *)

val until_rows_on :
  t -> ?pool:Parallel.Pool.t -> ?telemetry:Telemetry.t -> rows_solver ->
  phi:bool array -> psi:bool array -> time_bound:float ->
  reward_bound:float -> Linalg.Vec.t
(** [Prob (Phi U^{<=t}_{<=r} Psi)] for every original state, solving one
    problem per {e reachable-set group}.  The pipeline states that need a
    solve (amalgamation and the quotient both merge initial states, so
    symmetric models need far fewer than there are states) are grouped
    by the set of states reachable from them, which is shared exactly by
    the states of one strongly connected component.  Each group's problem
    is restricted to that set once (init pruning), and [solve] answers
    all of the group's states in one call.
    Groups are dispatched across [pool] with a cutoff of one; each
    dispatched solve sees a busy pool and runs its kernels inline, so
    answers are bit-identical for every pool size.  [phi] and [psi] must
    be the masks the pipeline was prepared from. *)

val until_probabilities_on :
  t -> ?pool:Parallel.Pool.t -> ?telemetry:Telemetry.t ->
  (Problem.t -> float) -> phi:bool array -> psi:bool array ->
  time_bound:float -> reward_bound:float -> Linalg.Vec.t
(** {!until_rows_on} with a scalar solver, run once per row on
    {!Problem.from_state}.  Answers are those of the rows form whenever
    the rows solver agrees with the scalar one row by row (as
    [Engine.solve_rows] does with [Engine.solve]). *)
