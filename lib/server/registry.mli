(** The daemon's model registry: named models, each carrying its warm
    state.

    Entries come in two flavours.  A {e checked} entry bundles a
    point-valued or interval model with everything that makes repeat
    queries cheap: a prepared {!Checker.t} and a {!Checker.memo} holding the
    hash-consed Sat-set and path-probability tables plus the
    {!Perf.Batch} cache of Theorem 1 pipelines.  A {e symbolic} entry
    wraps a [.gcm] guarded-command program as a {!Perf.Symbolic.t},
    whose warm state is the interned state space and the per-query
    result memo — states discovered by one query are never re-discovered
    by the next.  (The third warm layer, the Fox–Glynn window memo, is
    process-wide, mutex-protected, and needs no per-entry state.)

    Concurrency: the table itself is guarded by one mutex whose critical
    sections are tiny (hash lookups), so lookups on different models
    never wait on each other's solves.  Each entry additionally carries
    its own lock, taken via {!exclusively} around a solve, which is what
    protects the entry's warm caches when entries are used from several
    executor domains.  Under the per-model sharding of
    {!Service.serve_channels} the lock is uncontended by construction —
    same model, same shard — and warm-cache hits on {e different} models
    never serialise on anything.

    Eviction is by unlinking: {!evict} removes the name from the table,
    but an entry already resolved by an in-flight request stays valid —
    models, labelings and memos are never mutated destructively, so the
    request completes against the state it resolved and the entry is
    reclaimed by the GC afterwards.  Later requests on the evicted name
    get [None] from {!find}. *)

type payload =
  | Checked of {
      ctx : Checker.t;
          (** prepared on the server's engine/pool config: a precise
              context ({!Checker.make}) for point-valued models, a robust
              one ({!Checker.make_robust}) for interval models *)
      memo : Checker.memo;
          (** the entry's warm caches (envelopes and three-valued Sat
              sets included on robust entries) *)
      init : Linalg.Vec.t;  (** the model's initial distribution *)
    }
  | Symbolic of {
      path : string;            (** the [.gcm] file it was loaded from *)
      sym : Perf.Symbolic.t;    (** warm space + query memo *)
    }

type entry = {
  name : string;
  payload : payload;
  entry_lock : Mutex.t;
      (** guards the payload's warm caches during a solve; take it via
          {!exclusively} *)
}

type t

val create :
  make_ctx:(Markov.Mrm.t -> Markov.Labeling.t -> Checker.t) ->
  make_robust_ctx:(Robust.Imrm.t -> Markov.Labeling.t -> Checker.t) ->
  unit -> t
(** [make_ctx] prepares the checking context for every loaded explicit
    model — the server closes it over its engine, epsilon, pool and
    telemetry; [make_robust_ctx] does the same for
    interval-valued entries ({!Checker.make_robust}).  Symbolic entries
    use neither. *)

val load :
  t -> name:string -> ?builtin:string -> ?file:string -> ?drift:float ->
  ?imrm:string -> unit -> (entry, Models.Source.error) result
(** Build the model and register it under [name], replacing any
    existing entry (fresh warm state).  The model is
    [Models.Source.resolve ?file ?drift ?imrm source] with [source] the
    [builtin] name, or [name] itself without one — an alias gives the
    entry its own independent warm caches.  Point-valued and interval
    models become {!Checked} entries; [.gcm] programs become {!Symbolic}
    entries, each load with a fresh, independent warm space. *)

val find : t -> string -> entry option

val exclusively : entry -> (unit -> 'a) -> 'a
(** Run [f] holding the entry's lock — every solve against the entry's
    warm caches goes through here. *)

val evict : t -> string -> bool
(** [true] when the name was registered. *)

val entries : t -> entry list
(** Sorted by name. *)
