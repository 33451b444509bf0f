(** Ordinary (strong) lumpability quotients of labelled Markov reward
    models.

    A partition of the state space is ordinarily lumpable when every state
    of a block has the same aggregate rate into each other block; the
    aggregated process is then a CTMC for {e any} initial distribution,
    and all transient/steady-state/reward measures of blocks are preserved
    exactly.  We additionally require blocks to agree on the atomic
    propositions and the reward rate, so that CSRL checking commutes with
    the quotient.

    This is the classical model-reduction companion to the paper's
    Theorem 1 amalgamation (which merges only absorbing states); symmetric
    models — e.g. pools of identical components tracked individually —
    collapse to their counting abstraction. *)

type t = {
  quotient : Mrm.t;
  labeling : Labeling.t;        (** quotient labeling *)
  block_of_state : int array;   (** original state -> block *)
  n_blocks : int;
  representative : int array;   (** block -> one original member *)
}

val compute : Mrm.t -> Labeling.t -> t
(** Lumpable partition refining the (label set, reward) partition, by
    straightforward partition refinement.  The quotient's rate from block
    [B] to block [C] is the representative's aggregate rate.  Aggregates
    are compared by their [%.12g] renderings: rates that differ only
    beyond the 12th significant digit share a block, rates that differ
    earlier keep blocks apart.  Each round keys a state by an int array
    — its own block, then one (block, token) pair per block it reaches,
    by ascending block — where a token numbers one rendering, formatted
    once per distinct float bit pattern; blocks are numbered by first
    occurrence in state order.  The signature includes the aggregate
    into the {e own} block, which is slightly stricter than ordinary
    lumpability requires but keeps even the next-operator
    (jump-counting) semantics exact on the quotient. *)

val lift : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [lift l v] aggregates an original-space vector into block space by
    summation (push-forward of a distribution). *)

val lower : t -> Linalg.Vec.t -> Linalg.Vec.t
(** [lower l w] maps block values back to the original states
    (every member gets its block's value) — for probabilities and
    expectations, which are constant on blocks. *)
