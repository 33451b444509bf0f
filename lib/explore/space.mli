(** On-demand state interning over a successor-function model.

    A space assigns dense integer ids to the states of a {!Succ.t} in
    discovery order and caches, per id, the state's reward and — once
    the state is {e expanded} — its successor list with targets already
    interned.  The cache is query-independent: the same space can back
    any number of windowed solves over the same model (the serving
    daemon's per-model warm cache), and an id, once assigned, never
    changes.  {!Windowed} orders its arithmetic by its own per-solve
    ranks, not by these ids, so a warm space gives the same answers as a
    cold one.

    Valuations are interned in an open-addressed table of ids, hashed
    and compared cell by cell; a valuation is copied the first time it
    is seen and never again.  Expanding a state refills the space's one
    {!Succ.buffer} and allocates only that state's successor-id and
    rate arrays (plus the copies of targets seen for the first time).
    Every id-indexed array grows by doubling. *)

type t

val create : Succ.t -> t
(** A fresh space with exactly the initial state interned (id [0]). *)

val model : t -> Succ.t

val intern : t -> Succ.state -> int
(** The state's id, assigning the next free one on first sight.  The
    state's reward is evaluated and validated before the id is assigned,
    so when the model raises (or the reward is negative or not finite)
    the space is left unchanged.  Raises [Invalid_argument] when the
    valuation's length differs from the model's. *)

val state : t -> int -> Succ.state
val n_states : t -> int  (** states interned so far *)

val n_expanded : t -> int  (** states whose successors are cached *)

val n_transitions : t -> int  (** cached transitions *)

val reward : t -> int -> float

val expand : t -> int -> unit
(** Force the successor cache of an id (a no-op when already there). *)

val succ_ids : t -> int -> int array
(** Interned successor ids, in the model's order; forces expansion.  The
    returned array is the live cache — do not mutate. *)

val succ_rates : t -> int -> float array
(** Rates parallel to {!succ_ids}; forces expansion.  Live cache. *)

val rewards : t -> float array
(** The live id-indexed reward array, for loops that cannot afford the
    boxed float a {!reward} call returns.  Read-only; entries from
    {!n_states} on are unspecified, and an {!intern} or {!expand} may
    replace the array, so fetch it again after either. *)

val close : ?limit:int -> t -> (unit, int) result
(** Explore to closure: expand every interned state, interning the
    discovered targets, until no state is unexpanded — the space then
    holds exactly the states reachable from the states interned so far.
    Stops with [Error n] (n states interned so far) as soon as more than
    [limit] (default [1_000_000]) states are interned. *)
