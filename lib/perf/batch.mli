(** Cross-query caches for the Theorem 1 checking pipeline.

    A batched workload asks many [P3]-style questions
    [P<>p (Phi U^{<=t}_{<=r} Psi)] over {e one} model.  Re-running each
    query from scratch rebuilds the absorbing-transformed MRM and
    re-solves the reduced reachability problem even when only the bound
    [p], the horizon [t] or the budget [r] changed.  This module keeps
    the two reusable artefacts of that pipeline:

    - the {!Reduced.t} reduction, keyed by the mask pair
      [(Sat Phi, Sat Psi)] — queries differing only in [t], [r] or [p]
      share one transformed model;
    - the {!Reduction.t} quotient-and-prune pipeline built on top of it,
      under the same key (the pipeline, like the Theorem 1 transform,
      depends only on the mask pair);
    - the full per-state probability vector of
      [Prob (Phi U^{<=t}_{<=r} Psi)], keyed by
      [(Sat Phi, Sat Psi, t, r)] — queries differing only in the
      probability bound [p] share the whole numerical solve.

    The caches assume the model is immutable for their lifetime (MRMs
    are never mutated in this code base, and a cache is scoped to one
    batch), so there is no invalidation.  All entries are deterministic
    functions of their key, which gives the batch engine its defining
    invariant: cached answers are bit-identical to cold ones.

    Thread-safety: lookups and stores take an internal mutex, so one
    cache may be shared by queries dispatched across a
    {!Parallel.Pool}.  Concurrent misses on the same key may duplicate
    a computation; both results are identical, so the races are
    benign. *)

type t
(** The caches of one batch, plus their hit counters. *)

type counters = Numerics.Memo.counters = { lookups : int; hits : int; misses : int }
(** Per-cache statistics ({!Numerics.Memo.counters}). *)

val create : unit -> t

val reduced :
  t -> Markov.Mrm.t -> phi:bool array -> psi:bool array -> Reduced.t
(** Memoised {!Reduced.reduce}.  The key is the [(phi, psi)] mask pair;
    the model itself is not part of the key, so one cache must only ever
    see one model. *)

val reduction :
  t -> ?config:Reduction.config -> ?telemetry:Telemetry.t ->
  Markov.Mrm.t -> phi:bool array -> psi:bool array -> Reduction.t
(** Memoised {!Reduction.prepare_on} over the cached {!reduced}
    transform, under the same [(phi, psi)] key.  The pipeline config is
    part of the checker context, not of the key, so one cache must only
    ever see one config (as it must only ever see one model). *)

val until_probabilities :
  t -> ?config:Reduction.config -> ?telemetry:Telemetry.t ->
  ?pool:Parallel.Pool.t -> Reduction.rows_solver -> Markov.Mrm.t ->
  phi:bool array -> psi:bool array -> time_bound:float ->
  reward_bound:float -> Linalg.Vec.t
(** Memoised {!Reduction.until_rows_on} over the cached pipeline, keyed
    by [(phi, psi, time_bound, reward_bound)].  The solver argument
    (typically [Engine.solve_rows spec]) is only invoked on a miss;
    callers must pass a solver that is a deterministic function of the
    problem and rows (all three Section 4 engines are).  Returns a fresh
    copy of the cached vector, so callers may mutate their result
    freely. *)

val counters : t -> (string * counters) list
(** Current statistics, sorted by cache name: [\[("reduced", _);
    ("reduction", _); ("until", _)\]]. *)
