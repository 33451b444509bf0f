(** The cross-query cache of the Theorem 1 checking pipeline.

    A batched workload asks many [P3]-style questions
    [P<>p (Phi U^{<=t}_{<=r} Psi)] over {e one} model.  The Theorem 1
    transform and the quotient-and-prune pipeline built on it depend
    only on the mask pair [(Sat Phi, Sat Psi)], so queries differing in
    [t], [r] or [p] alone share one {!Reduction.t}, built by
    {!Reduction.prepare} on a miss.  The solved per-state vectors are
    not kept here: the checker's path table, keyed by the whole path
    formula, is their only store.

    The cache assumes the model is immutable for its lifetime (MRMs are
    never mutated in this code base, and a cache is scoped to one
    batch), so there is no invalidation.  Every entry is a deterministic
    function of its key, which gives the batch engine its defining
    invariant: cached answers are bit-identical to cold ones.

    Thread-safety: lookups and stores take an internal mutex, so one
    cache may be shared by queries dispatched across a
    {!Parallel.Pool}.  Concurrent misses on the same key may duplicate
    a computation; both results are identical, so the races are
    benign. *)

type t
(** The pipeline cache of one batch, plus its hit counters. *)

type counters = Numerics.Memo.counters = { lookups : int; hits : int; misses : int }
(** Per-cache statistics ({!Numerics.Memo.counters}). *)

val create : unit -> t

val until_probabilities :
  t -> ?telemetry:Telemetry.t -> ?pool:Parallel.Pool.t ->
  Reduction.rows_solver -> Markov.Mrm.t -> phi:bool array ->
  psi:bool array -> time_bound:float -> reward_bound:float -> Linalg.Vec.t
(** {!Reduction.until_rows_on} over the pipeline cached under
    [(phi, psi)].  The model is not part of the key, so one cache must
    only ever see one model.  The vector is freshly computed on every
    call and not retained. *)

val counters : t -> (string * counters) list
(** Current statistics: [\[("reduction", _)\]]. *)
