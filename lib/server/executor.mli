(** The executor pool: N worker domains, each owning one bounded FIFO
    shard queue.

    A session's reader hands every request that names a model to the
    shard chosen by that name (same model → same shard), so each
    registry entry's warm caches are touched by exactly one domain at a
    time and per-model request order is preserved — the two properties
    the serving layer's determinism argument rests on (DESIGN.md §16).
    Parallelism comes from {e different} models landing on different
    shards.

    Jobs are opaque closures: the service packages request execution and
    the filling of the request's response slot into the closure, so this
    module knows nothing about the protocol.  A job never waits on a
    session, so a shard keeps draining whatever its clients do. *)

type t

val create : shards:int -> queue_bound:int -> t
(** Spawn [shards] worker domains ([>= 1], else [Invalid_argument]),
    each with a FIFO queue bounded at [queue_bound]. *)

val submit : t -> shard:int -> (unit -> unit) -> unit
(** Enqueue a job on the given shard, blocking while that shard's queue
    is full (backpressure stalls the submitting reader, never drops
    admitted work).  Jobs on one shard run strictly in submission order.
    A job that raises is dropped (the worker survives); the service
    wraps every job so that cannot happen without its slot having been
    filled. *)

val stop : t -> unit
(** Drain every shard (jobs already submitted still run), stop the
    workers and join their domains.  Idempotent; [submit] after [stop]
    is a programming error. *)
