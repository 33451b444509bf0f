(** Fox–Glynn-style computation of truncated Poisson weight vectors.

    Given the uniformisation parameter [q = lambda * t] and a total error
    budget [epsilon], this module produces the window [\[left, right\]] and
    the Poisson probabilities on it such that the mass outside the window is
    below [epsilon].  The weights are anchored at the distribution's mode so
    that no intermediate quantity underflows even for [q] in the tens of
    thousands (the pseudo-Erlang expansion of the case study reaches
    [q ~ 8700] for 1024 phases). *)

type t = private {
  left : int;      (** first retained index *)
  right : int;     (** last retained index *)
  weights : float array;
      (** [weights.(i)] is the Poisson([q]) probability of [left + i] *)
  total : float;   (** sum of the retained weights, [>= 1 - epsilon] *)
}

val compute : q:float -> epsilon:float -> t
(** [compute ~q ~epsilon] builds the weight window.  Requires [q >= 0] and
    [0 < epsilon < 1].  For [q = 0] the window is the single point [0] with
    weight [1].  The left tail is cut at mass [<= epsilon /. 2.] and so is
    the right tail.

    Results are memoised across calls, keyed by [(q, epsilon)] — at every
    call site [q] is the uniformisation product [lambda * t], so repeated
    solves over one model (batched queries, the Erlang expansion, bench
    sweeps) reuse the window instead of rebuilding it.  The computation is
    pure and the window immutable, so a cached answer is bit-identical to
    a fresh one; the cache is mutex-protected and bounded (a full table is
    dropped wholesale). *)

type cache_counters = Memo.counters = { lookups : int; hits : int; misses : int }

val cache_counters : unit -> cache_counters
(** Cumulative cache statistics since start-up (or {!cache_clear});
    [hits + misses = lookups] always.  The batch engine snapshots these
    around a run to report the cross-query reuse rate. *)

val cache_clear : unit -> unit
(** Drop all memoised windows and reset the counters — used by benches
    that want genuinely cold runs. *)

val record : Telemetry.t option -> t -> unit
(** [record telemetry w] publishes a finished window to [telemetry]: the
    counter [fox_glynn.calls] and the gauges [fox_glynn.left],
    [fox_glynn.right] (the truncation points) and [fox_glynn.weight_mass]
    (the retained total).  Recording only reads the result, so computed
    values are identical with and without it; a no-op on [None]. *)

val weight : t -> int -> float
(** [weight w n] is the retained Poisson probability of [n] ([0.] outside
    the window). *)

val fold : t -> init:'a -> f:('a -> int -> float -> 'a) -> 'a
(** [fold w ~init ~f] folds [f] over the pairs [(n, weight n)] for [n] from
    [left] to [right] in increasing order. *)
