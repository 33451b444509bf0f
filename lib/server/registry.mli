(** The daemon's model registry: named models, each carrying its warm
    state.

    Every entry is one record: a prepared {!Checker.t} built by
    {!Batch.context} — precise for a point-valued model, robust for an
    interval model, a program context for a [.gcm] program under the
    windowed engine — plus a {!Checker.memo} holding the hash-consed
    Sat-set and path-value tables and the {!Perf.Batch} cache of
    Theorem 1 pipelines.  A program context also keeps its interned
    state space warm: states discovered by one query are never
    re-discovered by the next.  (The remaining warm layer, the
    Fox–Glynn window memo, is process-wide, mutex-protected, and needs
    no per-entry state.)

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

type entry = {
  name : string;
  ctx : Checker.t;  (** prepared on the server's engine/pool config *)
  memo : Checker.memo;
      (** the entry's warm caches (envelopes, certified intervals and
          three-valued Sat sets included) *)
  init : Linalg.Vec.t;
      (** the model's initial distribution (a program's one row) *)
  entry_lock : Mutex.t;
      (** guards the entry's warm caches during a solve; take it via
          {!exclusively} *)
}

type t

val create :
  engine:Perf.Engine.spec -> epsilon:float -> pool:Parallel.Pool.t ->
  ?telemetry:Telemetry.t -> unit -> t
(** Every loaded model is checked under [engine], [epsilon], [pool] and
    [telemetry] (the server's config). *)

val load :
  t -> name:string -> ?builtin:string -> ?file:string -> ?drift:float ->
  ?imrm:string -> unit -> (entry, Models.Source.error) result
(** Build the model and register it under [name], replacing any
    existing entry (fresh warm state).  The model is
    [Models.Source.resolve ~engine ?file ?drift ?imrm source] with
    [source] the [builtin] name, or [name] itself without one — an alias
    gives the entry its own independent warm caches.  A [.gcm] program
    follows the engine there: a program context under the windowed
    engine, its materialised twin under the others. *)

val find : t -> string -> entry option

val exclusively : entry -> (unit -> 'a) -> 'a
(** Run [f] holding the entry's lock — every solve against the entry's
    warm caches goes through here. *)

val evict : t -> string -> bool
(** [true] when the name was registered. *)

val entries : t -> entry list
(** Sorted by name. *)
