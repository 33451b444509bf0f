(** The pseudo-Erlang approximation (Section 4.2 of the paper).

    The deterministic reward bound [r] is replaced by an Erlang-[k]
    distributed random bound with mean [r].  Operationally the accumulated
    reward is metered by a phase counter: while the chain sits in state [s]
    the counter advances with rate [rho s *. k /. r]; after [k] advances
    the (randomised) budget is exhausted.  The joint process (state, phase)
    is an ordinary CTMC of size [|S| * k + 1], so standard transient
    analysis applies, and

    [Pr{ Y_t <= r, X_t in S' } ~ sum of the transient mass on
    S' x {0..k-1}].

    The approximation error vanishes as [k] grows (the Erlang-[k]
    distribution concentrates on [r]); the paper observes convergence from
    below and needs roughly 250 phases for three-digit accuracy on the
    case study — both reproduced in the benches.

    An impulse reward [iota] advances the counter by [round (iota *. k /.
    r)] phases at once.  Impulses put atoms into [Y_t], and one can land
    exactly on [r]: a model with impulses therefore has a phase [k] per
    state ("at the bound", [|S|] more states), entered when a jump
    reaches [k] exactly in a state without rate reward and left for the
    sink by any further reward, so a path that earns exactly [r] counts,
    as [Y_t <= r] says. *)

val expanded_ctmc : Problem.t -> phases:int -> Markov.Ctmc.t
(** The (state, phase) chain; state [(s, i)] has index [s * phases + i]
    for [i < phases], the at-bound state [(s, phases)] (impulse models
    only) [|S| * phases + s], and the exhausted-budget sink is the last
    index.  Exposed for tests and
    for the tensor-structure discussion in DESIGN.md. *)

val solve :
  ?epsilon:float -> ?pool:Parallel.Pool.t -> ?telemetry:Telemetry.t ->
  ?cancel:Numerics.Cancel.t -> phases:int -> Problem.t -> float
(** [solve ~phases p] runs transient analysis on the expanded chain
    ([epsilon], default [1e-12], is the uniformisation truncation error);
    [pool] parallelises the uniformisation steps on the [|S| * k + 1]-state
    chain (see {!Markov.Transient}).  [telemetry] records the gauges
    [erlang.phases] and [erlang.expanded_states] (the size of the
    expansion) plus the [fox_glynn.*] / [uniformisation.*] measurements of
    the embedded transient solve.  [cancel] is polled once per
    uniformisation step of the expanded chain (see {!Markov.Transient}).
    Raises [Invalid_argument] if [phases < 1] or if the problem's reward
    bound is zero (the Erlang distribution then degenerates).  A problem
    whose reward bound is unreachable ([rho_max * t <= r]) is still
    approximated through the expansion — callers wanting the exact
    degenerate answer should special-case it via
    {!Problem.reward_trivially_satisfied}. *)
