(** Uniform front-end over the three computational procedures of
    Section 4. *)

type spec =
  | Pseudo_erlang of { phases : int }
      (** Section 4.2; accuracy grows with the number of phases. *)
  | Discretize of { step : float }
      (** Section 4.3; accuracy grows as the step shrinks (cost is
          quadratic in [1 /. step]). *)
  | Occupation_time of { epsilon : float }
      (** Section 4.4; the only procedure with an a-priori error bound.

          Each solve first picks the side of the time/reward duality
          (Baier et al., Theorem 1; {!Problem.dual}) it runs on.  It
          takes the dual when the model is
          {!Markov.Duality.is_dualizable}, every goal state is absorbing
          with reward 0 (the Theorem 1 form, without which the dual asks
          a different question), [r > 0], and
          [q~ = r * max E(s)/rho(s)] over the non-absorbing states is
          strictly below [q = t * max E(s)].  Sericola computes
          [|S| m (N+1)(N+2)/2] cells with [N] growing in [q], and the
          dual keeps [|S|], the sparsity pattern and [m], so the rule
          picks the side with fewer layers and cells from the input
          alone.  Both sides agree within [2 epsilon]; a problem the
          rule keeps primal is solved exactly as before.  The telemetry
          counter [sericola.dualised] counts the solves that took the
          dual. *)
  | Windowed of { epsilon : float }
      (** Sliding-window truncated uniformisation ({!Explore.Windowed})
          run over the explicit model wrapped as a successor function:
          only states actually reachable with non-negligible mass are
          expanded, and the answer is the midpoint of a certified
          interval of half-width [<= epsilon].  The reward bound is
          certified over the explored window ([rho_max *. t <= r] there);
          when it bites inside the window, the solve falls back to the
          occupation-time engine at the same [epsilon] (counted by the
          telemetry counter [explore.reward_fallbacks]).  Models with
          impulse rewards always take the fallback. *)

val default : spec
(** [Occupation_time {epsilon = 1e-9}] — the paper's conclusion picks this
    method as fast, accurate and self-stopping for models of moderate
    size. *)

val name : spec -> string

val solve :
  ?pool:Parallel.Pool.t -> ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t -> spec -> Problem.t -> float
(** [Pr{Y_t <= r, X_t in goal}] with the chosen procedure, on the problem
    as given (the quotient-and-prune pipeline is {!Reduction}'s, which
    hands its problems to {!solve_rows}).  Problems whose reward bound can never be exceeded short-circuit to
    plain transient analysis (this also covers the corner cases the
    individual engines reject, e.g. a pseudo-Erlang bound of zero on a
    zero-reward model).  The occupation-time engine picks its side (see
    {!Occupation_time}) before the trivial-bound shortcut.

    [pool] runs the chosen procedure's hot loops on a domain pool (see
    {!Parallel.Pool}): row-partitioned matrix–vector products for the
    pseudo-Erlang and transient paths, per-state grid updates for the
    discretisation, and the layer recursion for the occupation-time
    algorithm.  Omitting it (the default) executes exactly the sequential
    code, bit-for-bit.

    [telemetry] wraps the whole solve in a span named
    [engine.<procedure name>] and threads the recorder into the chosen
    procedure, so a single run yields the per-method convergence
    measurements ([fox_glynn.*], [uniformisation.*], [sericola.*],
    [discretisation.*], [erlang.*]) documented in the respective
    modules.

    [cancel] is threaded to the chosen procedure's cooperative
    checkpoints (per uniformisation step / Sericola layer /
    discretisation time step); a fired token aborts the solve with
    {!Numerics.Cancel.Cancelled} without touching any cache, an unfired
    one never changes a result. *)

val solve_rows :
  ?pool:Parallel.Pool.t -> ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t -> spec -> Problem.t -> rows:int array ->
  float array
(** [solve_rows spec p ~rows] is [solve spec (Problem.from_state p b)] for
    every state [b] of [rows], bit for bit.  The occupation-time engine
    picks its side once (the rule reads only the model, the goal and the
    bounds, which the rows share) and answers all rows from one recursion
    ({!Sericola.solve_rows}); the other engines, and problems whose
    reward bound cannot bite on the chosen side, run one solve per row.
    The initial distribution of [p] is ignored. *)

val of_string : string -> (spec, string) result
(** Parse the CLI syntax shared by every front-end ([csrl-check]'s and
    [csrl-serve]'s [--engine]): [sericola[:eps]] (alias
    [occupation-time]), [erlang[:phases]], [discretise[:step]] (aliases
    [discretize], [tijms-veldman]), [windowed[:eps]].  The error is a
    one-line human message. *)

val pp_spec : Format.formatter -> spec -> unit
