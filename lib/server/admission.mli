(** The bounded MPMC queue of the serving layer: each session's queue of
    response slots, between its reader and its writer, and each
    executor domain's shard queue, between the sessions' readers and
    that domain.

    A reader admits a request into its session's slot queue with
    {!try_push}, which refuses instead of blocking when the queue is
    full — the server turns a refusal into a structured [overloaded]
    rejection, so a flooded daemon sheds load instead of buffering
    unboundedly or stalling the transport.  It then hands a model
    request to its shard with {!push_wait}, which blocks while the
    shard is full — backpressure there must stall the reader, not drop
    a request that was already admitted.  The end-of-input and executor
    stop markers use {!push_control}, which ignores the bound: they
    carry no payload work and must never be dropped.  The writer reads
    the head slot with {!peek} and removes it with {!pop} only once its
    reply is written, so the bound counts every unanswered request.

    One lock, two conditions: the queue is strictly FIFO under any
    number of concurrent producers and consumers — each producer's own
    pushes are delivered in its push order, which is what makes response
    order (and the scripted cram sessions) deterministic. *)

type 'a t

val create : bound:int -> 'a t
(** [bound >= 1] is the maximum number of queued items {!try_push} and
    {!push_wait} admit.  Raises [Invalid_argument] otherwise. *)

val try_push : 'a t -> 'a -> bool
(** Enqueue, or return [false] when {!length} is already at the bound. *)

val push_wait : 'a t -> 'a -> unit
(** Enqueue, blocking while the queue is at the bound. *)

val push_control : 'a t -> 'a -> unit
(** Enqueue unconditionally (control markers only). *)

val peek : 'a t -> 'a
(** The oldest item, left in the queue; blocks while the queue is
    empty. *)

val pop : 'a t -> 'a
(** Dequeue the oldest item, blocking while the queue is empty. *)

val length : 'a t -> int
