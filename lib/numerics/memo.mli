(** Keyed lookup-or-compute caches with hit statistics.

    One skeleton serves every cache layer of the checking pipeline: the
    process-wide Fox–Glynn window memo ({!Fox_glynn}), the Theorem 1
    pipeline cache of [Perf.Batch] and the Sat-set and path tables of
    the checker's cross-query memo (path values are point vectors or
    envelopes).  A table is a [Hashtbl] plus its
    counters; the mutex is the caller's, so several tables (and other
    state, such as a formula interning table) may share one lock.

    Every cached value must be a deterministic function of its key:
    {!find_or_compute} runs the computation outside the lock, so two
    concurrent misses on one key may both compute, and the second store
    replaces an identical value.  That is what keeps a cached answer
    bit-identical to a cold one. *)

type counters = { lookups : int; hits : int; misses : int }
(** Statistics of one cache; [hits + misses = lookups] always. *)

val hit_rate : counters -> float
(** [hits / lookups], or [0.] when the cache was never consulted. *)

val diff : counters -> counters -> counters
(** [diff after before]: the lookups, hits and misses between two
    snapshots of one cache. *)

type ('k, 'v) t

val create : ?capacity:int -> int -> ('k, 'v) t
(** [create n] is an empty table of initial size [n].  With [capacity],
    a miss that finds the table holding [capacity] entries drops them
    all before storing — a bound for process-wide caches whose
    workloads cycle through far fewer keys, so eviction order never
    matters. *)

val find_or_compute : Mutex.t -> ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** The cached value of [key], or [compute ()] stored under it.  The
    lookup, the store and the counter updates happen under [lock];
    [compute] runs outside it, so it may itself consult tables guarded
    by the same lock.  An exception from [compute] stores nothing. *)

val counters : ('k, 'v) t -> counters
(** A snapshot; take it under the lock that guards the table. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry and zero the counters (under the table's lock). *)
