(** The batched multi-query checking engine.

    A batch is a list of CSRL queries evaluated over {e one} checking
    context.  {!run} evaluates them with a shared {!Checker.memo}, so the
    work the queries have in common is done once:

    - Sat-sets of hash-consed subformulas ([Checker]'s tables);
    - path values — the solved until-probability vectors among them —
      of hash-consed path formulas, shared by queries differing only in
      the bound [p];
    - the Theorem 1 model and the quotient-and-prune pipeline built on
      it, keyed by [(Sat Phi, Sat Psi)] — shared by queries differing
      only in [t], [r] or [p] ({!Perf.Batch});
    - Fox–Glynn weight windows, keyed by [(q·t, epsilon)]
      ({!Numerics.Fox_glynn}'s process-wide memo).

    {b The defining invariant}: batched answers are bit-identical to
    sequential single-query runs.  Two mechanisms guarantee it.  First,
    every cache entry is a deterministic function of its key on the
    fixed context, so a hit returns exactly what a cold computation
    would.  Second, per-query evaluation always runs the kernels on the
    {e sequential} pool ({!Checker.with_pool}); the optional [?pool]
    parallelises {e across} queries instead (each domain evaluates whole
    queries), so no floating-point reassociation ever enters the
    per-query numerics. *)

val context :
  ?engine:Perf.Engine.spec -> ?epsilon:float -> ?pool:Parallel.Pool.t ->
  ?telemetry:Telemetry.t -> Models.Source.t -> Checker.t * Linalg.Vec.t
(** The checking context of a resolved model and its initial
    distribution: {!Checker.make} for an explicit model,
    {!Checker.make_robust} for an interval one, and for a program a
    {!Checker.make_program} context over a fresh handle, certified at
    the program's own [epsilon] (the windowed engine's, not [epsilon]),
    whose initial distribution is its one row.  The CLI and the serving
    daemon's registry build every context here. *)

val run :
  ?pool:Parallel.Pool.t -> ?telemetry:Telemetry.t -> ?memo:Checker.memo ->
  Checker.t -> Logic.Ast.query list -> Checker.verdict list
(** [run ctx queries] evaluates the batch in order.

    [pool] (default sequential) dispatches queries across the pool's
    domains with one query per chunk; results land at their query's
    index, so the output order never depends on scheduling.  [ctx]'s own
    pool is ignored during batched evaluation (see above).

    [memo] (default a fresh one) carries the cross-query caches; pass an
    explicit memo to share caches across several [run]s over the same
    context, or to read {!Checker.memo_counters} afterwards.

    [telemetry] (default off) gives each query a private recorder whose
    report is rolled up into the given recorder with
    [Telemetry.absorb], then records the batch-level counters
    [batch.queries] and, per cache [c] of {!Checker.memo_counters} plus
    the process-wide [fox_glynn] window cache (as a delta over the run),
    [batch.c.lookups] / [batch.c.hits] / [batch.c.misses].  [ctx]'s own
    recorder is not used for batched evaluation — per-query interleaving
    on a pool would make its contents scheduling-dependent.

    Exceptions raised by a query ({!Checker.Unsupported},
    [Markov.Labeling.Unknown_proposition], ...) propagate to the
    caller after in-flight queries finish. *)

val cache_counters :
  Checker.memo -> fox_glynn_since:Numerics.Memo.counters ->
  (string * Numerics.Memo.counters) list
(** {!Checker.memo_counters} plus the process-wide [fox_glynn] window
    cache as the delta since the snapshot [fox_glynn_since] (a
    {!Numerics.Fox_glynn.cache_counters} taken before the run). *)

(** {1 JSON renderings}

    One rendering of verdicts, cache statistics and frontier results,
    shared by [csrl-check --batch/--frontier], the serving daemon and
    the bench driver, so their documents agree string for string. *)

val initial_value : init:Linalg.Vec.t -> Checker.verdict -> float * float
(** The verdict seen from the initial distribution [init]: the
    satisfying mass of a boolean verdict, the value of a numeric one
    (both as [(v, v)]), the certain and possible satisfying masses of a
    three-valued verdict, and the envelope of an interval verdict. *)

val verdict_json :
  init:Linalg.Vec.t -> Checker.verdict -> (string * Io.Json.t) list
(** The fields of a result object: ["kind"] ([boolean], [numeric],
    [three-valued] or [interval]), the {!initial_value} under the kind's
    names, and the per-state ["states"] list. *)

val counters_json : Numerics.Memo.counters -> Io.Json.t
(** [{"lookups", "hits", "misses", "hit_rate"}]. *)

val caches_json : (string * Numerics.Memo.counters) list -> Io.Json.t
(** One {!counters_json} object per named cache, in list order. *)

(** Frontier sweeps driven through the warm checking context.

    {!Frontier.run} decomposes a [frontier] query into bounded-until
    probes evaluated by {!Checker.eval_query} on the caller's context
    with a shared memo, and hands them to {!Perf.Frontier.sweep}.  The
    probes therefore share every batch cache layer — Sat sets, path
    values, the Theorem 1 pipeline per [(Sat Phi, Sat Psi)] and the
    process-wide Fox–Glynn windows — while each
    emitted point stays bit-identical to a cold single-query solve of
    the same bounds (the {!run} invariant, inherited probe by probe). *)
module Frontier : sig
  type point = Perf.Frontier.point = {
    t : float;
    r : float;
    probability : float;
  }

  type result = {
    target : float;        (** the probability threshold [p] *)
    time_bound : float;    (** [T] from [\[t<=T\]] — the grid's right edge *)
    reward_bound : float;  (** [R] from [\[r<=R\]] — the search ceiling *)
    grid : int;            (** requested time-grid resolution *)
    tolerance : float;     (** reward-axis bisection tolerance *)
    points : point list;   (** the staircase (see {!Perf.Frontier.sweep}) *)
    evaluations : int;     (** until solves performed across the sweep *)
  }

  val bounds_json : result -> (string * Io.Json.t) list
  (** ["target"], ["time_bound"], ["reward_bound"], ["grid"] and
      ["tolerance"]. *)

  val points_json : point list -> Io.Json.t
  (** The staircase as a list of [{"t", "r", "probability"}] objects. *)

  val run :
    ?telemetry:Telemetry.t -> ?memo:Checker.memo -> ?tolerance:float ->
    Checker.t -> init:Linalg.Vec.t -> Logic.Ast.query -> result
  (** [run ctx ~init query] sweeps a {!Logic.Ast.Frontier_query} against
      the initial distribution [init] (each probe is the probability
      vector dotted with [init]).  [tolerance] defaults to [1e-6].
      Records [frontier.grid] / [frontier.points] /
      [frontier.evaluations] on [telemetry].  Raises
      {!Checker.Unsupported} on an interval or program context (a sweep
      needs point probabilities), and [Invalid_argument]
      on any other query form or when the until's bounds are not finite
      downward-closed intervals (the parser's [frontier] production
      guarantees both). *)
end
