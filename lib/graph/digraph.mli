(** Directed graphs over integer vertices [0 .. n-1].

    Used for the qualitative precomputations of the model checker (which
    states can reach a goal set at all) and for the bottom-SCC analysis of
    the steady-state operator. *)

type t
(** Immutable: each vertex's successors are one slice of a flat target
    array, located by an offset array (compressed sparse rows). *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] builds a graph; duplicate edges are kept only once.
    Raises [Invalid_argument] on out-of-range endpoints. *)

val of_csr : Linalg.Csr.t -> t
(** Structure graph of a square sparse matrix: edge [(i, j)] iff the entry
    is stored and non-zero.  Built straight from the matrix's row
    pointers and column indices, so successors come in ascending column
    order. *)

val n_vertices : t -> int

val successors : t -> int -> int list
(** Successor list in insertion order (each successor once): the edge
    list's order for {!of_edges}, ascending column for {!of_csr}. *)

val iter_succ : t -> int -> (int -> unit) -> unit
(** Applies the function to {!successors}, in order, without building
    the list. *)

val reverse : t -> t
(** The transposed graph, by a counting sort: the successors of [v] in
    [reverse g] are its predecessors in [g], in ascending order. *)

val pp : Format.formatter -> t -> unit
