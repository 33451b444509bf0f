(** The CSRL model checker (Section 3 of the paper).

    [Sat Phi] is computed by a bottom-up traversal of the formula's parse
    tree.  The boolean layer is set algebra on characteristic vectors; the
    probabilistic operators dispatch on the shape of their bounds to the
    procedure the paper prescribes:

    - [P0] — until with no bounds: qualitative precomputation
      (probability-0/1 sets) followed by a linear system on the embedded
      chain (Hansson–Jonsson).
    - [P1] — time-bounded until: make goal and illegal states absorbing,
      then transient analysis (Baier–Haverkort–Hermanns–Katoen).
    - [P2] — reward-bounded until: swap time and reward with the duality
      transform and fall back to [P1].
    - [P3] — time- {e and} reward-bounded until: the Theorem 1 reduction
      followed by one of the three numerical engines of Section 4.

    The steady-state operator follows the BSCC construction of the CSL
    literature.

    One recursion serves three context kinds: point-valued models
    ({!make}), interval-valued ones ({!make_robust}) and [.gcm] programs
    under the windowed engine ({!make_program}).  Every threshold is
    decided on the value's [\[lo, hi\]] ({!tri_of_bounds}). *)

type t
(** A checking context: model, labeling, engine selection, accuracy. *)

exception Unsupported of string
(** A formula with no procedure on the context, with a one-line reason:
    the paper's open problems (a reward interval not starting at 0, a
    time-interval lower bound combined with a reward bound), a
    reward-bounded, time-unbounded until whose duality transform needs
    infinite rates, and the operators an interval or program context
    has no procedure for (see {!robust_sat} and {!make_program}). *)

val make :
  ?engine:Perf.Engine.spec -> ?epsilon:float -> ?pool:Parallel.Pool.t ->
  ?telemetry:Telemetry.t -> ?cancel:Numerics.Cancel.t -> Markov.Mrm.t ->
  Markov.Labeling.t -> t
(** [engine] (default {!Perf.Engine.default}) solves the [P3] problems;
    [epsilon] (default [1e-9]) is the accuracy of transient analyses;
    [pool] (default sequential) runs the numerical kernels — transient
    analyses and the [P3] engines — on a domain pool (the CLI's
    [--jobs]).

    The [P3] path always runs the quotient-and-prune pipeline
    ({!Perf.Reduction}) between the Theorem 1 transform and the engine;
    per-state answers are translated back to the original state space,
    so nested CSRL formulas are oblivious to the quotient.  On models
    with no exploitable symmetry or unreachable mass no stage fires and
    answers are bit-identical to the unreduced solve.

    [telemetry] (default off) threads a {!Telemetry} recorder through
    every numerical procedure the traversal dispatches to: transient
    analyses record [fox_glynn.*] and [uniformisation.*], the [P3]
    engines their [sericola.*] / [discretisation.*] / [erlang.*]
    measurements under an [engine.<name>] span, the [P0] linear system
    the counter [unbounded_until.iterations], and {!eval_query} wraps
    the whole traversal in a [checker.eval_query] span.  Telemetry only
    observes the computation: with it disabled (or enabled) all computed
    values are identical, bit for bit (the CLI's [--trace] /
    [--stats]).

    [cancel] (default none) threads a cooperative cancellation token
    into every numerical kernel the traversal dispatches to; a fired
    token aborts the evaluation with {!Numerics.Cancel.Cancelled}
    between two checkpoints (uniformisation step, Sericola layer,
    discretisation time step), before any memo stores the partial
    result, so caches are never poisoned.  An unfired token never
    changes a value (the serving daemon's per-request deadline). *)

val make_robust :
  ?engine:Perf.Engine.spec -> ?epsilon:float -> ?pool:Parallel.Pool.t ->
  ?telemetry:Telemetry.t -> ?cancel:Numerics.Cancel.t -> Robust.Imrm.t ->
  Markov.Labeling.t -> t
(** A robust context over an interval-valued model: {!eval_query}
    answers {!Three_valued} Sat verdicts and {!Interval} path envelopes
    computed by {!Robust.Envelope.until} under an
    [engine.robust-envelope] span.  A zero-width model
    ({!Robust.Imrm.is_point}) needs no envelope: the checker runs its
    precise procedures on the point model, configured by [engine], so a
    point context and a robust context over
    {!Robust.Imrm.point} of the same model produce bit-identical
    probability values.  [epsilon] is both the Fox–Glynn accuracy and
    the envelope safety margin; the remaining parameters mean exactly
    what they mean on {!make}.

    The precise entry points ({!sat}, {!path_probabilities}, {!holds})
    raise {!Unsupported} on a robust or program context — they would
    silently answer on the interval midpoints or the placeholder
    otherwise. *)

val make_program :
  ?epsilon:float -> ?telemetry:Telemetry.t -> Perf.Symbolic.t -> t
(** A program context over a [.gcm] program's handle, under the
    windowed engine certified to [epsilon] (default [1e-9]).  Its one
    row, state [0], is the program's initial state, labelled by
    {!Perf.Symbolic.initial_labeling}; an until's value there is the
    [\[lower, upper\]] of {!Perf.Symbolic.until}, so {!eval_query}
    answers {!Three_valued} and {!Interval} verdicts as on an interval
    model.  Steady-state, expected-reward and next operators and the
    untils {!Perf.Symbolic.until} refuses raise {!Unsupported}. *)

val mrm : t -> Markov.Mrm.t
(** On an interval context this is the point model (zero width) or the
    interval midpoints, on a program context a one-state placeholder —
    state counts and display only. *)

val labeling : t -> Markov.Labeling.t

val robust_model : t -> Robust.Imrm.t option
val program : t -> Perf.Symbolic.t option

val require_precise : t -> string -> unit
(** [require_precise ctx "frontier sweeps need"] raises {!Unsupported}
    ("frontier sweeps need point probabilities; ...") on an interval or
    program context, whose until values are intervals. *)

val with_pool : t -> Parallel.Pool.t -> t
(** The same context running its kernels on a different pool.  The batch
    engine uses this to force the exact sequential kernel path on
    per-query evaluations while it parallelises {e across} queries —
    that is what keeps batched answers bit-identical to sequential
    single-query runs. *)

val with_telemetry : t -> Telemetry.t option -> t
(** The same context with a different (or no) recorder — used by the
    batch engine to give each query a private recorder that is then
    rolled up with [Telemetry.absorb]. *)

val with_cancel : t -> Numerics.Cancel.t option -> t
(** The same context with a different (or no) cancellation token — the
    serving daemon installs a fresh per-request deadline token on the
    shared warm context before each evaluation. *)

(* ------------------------------------------------------------------ *)
(* Cross-query memoisation.                                            *)

type memo
(** A cross-query cache for one fixed context: Sat-sets and path
    values keyed by hash-consed subformula (structurally equal
    subformulas are interned to one id), plus the {!Perf.Batch} cache
    of the Theorem 1 pipeline keyed by [(Sat Phi, Sat Psi)].  The path
    table is the only store of a solved until-vector.  Everything
    stored is a deterministic function of its key, so memoised answers
    are bit-identical to cold ones.

    A memo is only meaningful for the context (model, labeling, engine,
    epsilon) it was first used with — there is no invalidation, because
    models and labelings are immutable.  All tables are mutex-protected,
    so one memo may serve queries dispatched across a domain pool. *)

val create_memo : unit -> memo

val memo_counters : memo -> (string * Numerics.Memo.counters) list
(** Lookup/hit/miss statistics per cache, sorted by name: ["path"],
    ["reduction"] and ["sat"], on every context kind (three-valued
    Sat-sets count under ["sat"], envelopes and certified intervals
    under ["path"]).  In every entry [hits + misses = lookups]. *)

val sat : t -> Logic.Ast.state_formula -> bool array
(** The characteristic vector of [Sat Phi].  Raises
    [Markov.Labeling.Unknown_proposition] for propositions missing from the
    labeling, {!Unsupported} as described above. *)

val holds : t -> Logic.Ast.state_formula -> int -> bool
(** [holds ctx phi s]: does state [s] satisfy [phi]? *)

val path_probabilities : t -> Logic.Ast.path_formula -> Linalg.Vec.t
(** Entry [s] is [Prob (s, phi)] — the measure of paths from [s] satisfying
    the path formula (the quantitative [P=?] query). *)

(* ------------------------------------------------------------------ *)
(* Robust (interval-valued) verdicts.                                  *)

type tri = Holds | Fails | Unknown
(** Three-valued satisfaction over an interval model: [Holds] when every
    concrete model of the uncertainty set satisfies the formula in the
    state, [Fails] when none does, [Unknown] when the envelope straddles
    a probability bound (Kleene logic on the boolean layer).  On a
    program context the interval is the windowed engine's certified
    one. *)

val tri_of_bool : bool -> tri
val tri_to_string : tri -> string

val tri_of_bounds : Logic.Ast.comparison -> float -> lo:float -> hi:float -> tri
(** The threshold verdict of a [P cmp p] operator against an envelope:
    [Holds] if every value of [\[lo, hi\]] satisfies the comparison,
    [Fails] if none does, [Unknown] otherwise.  On a zero-width envelope
    ([lo = hi]) this coincides with {!Logic.Ast.compare_holds} and never
    answers [Unknown]. *)

val robust_sat : t -> Logic.Ast.state_formula -> tri array
(** The three-valued Sat vector.  On a robust context it raises
    {!Unsupported} for operators with no envelope procedure —
    steady-state, expected-reward, next, time-unbounded until — and on
    a program context for those listed at {!make_program}; on a precise
    context it is {!tri_of_bool} of {!sat}. *)

type verdict =
  | Boolean of bool array
  | Numeric of Linalg.Vec.t
  | Three_valued of tri array
      (** interval and program contexts: state formulas *)
  | Interval of Robust.Envelope.result
      (** interval and program contexts: quantitative path queries *)

val eval_query : ?memo:memo -> t -> Logic.Ast.query -> verdict
(** A query's verdict: {!Boolean} and {!Numeric} on a precise context,
    {!Three_valued} and {!Interval} on an interval or program one, which
    refuses [S=?] and [R=?] queries and the operators listed at
    {!robust_sat} with {!Unsupported}.  [memo] (default: a private memo for this call)
    shares Sat-sets, path values and Theorem 1 artefacts across calls —
    the per-query entry point of the batch engine and the serving
    daemon's warm caches, envelopes included.  Verdicts read from a
    shared memo are returned as fresh copies and are bit-identical to
    the verdicts of a private one. *)
