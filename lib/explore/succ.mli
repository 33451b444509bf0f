(** Successor-function ("symbolic") models.

    An explicit {!Markov.Mrm.t} stores every state and transition up
    front; a successor-backed model instead describes the chain by a
    function from a state to its outgoing transitions, so only the
    states an analysis actually touches are ever built.  This is the
    interface the guarded-command language ({!Lang}) compiles to and the
    windowed engine ({!Windowed}) explores.

    States are valuations of bounded integer variables, represented as
    plain [int array]s (one cell per variable, in declaration order).
    Two states are the same iff their cells are equal; the interner
    ({!Space}) relies on this. *)

type state = int array

(** A caller-owned successor buffer.  Row [k < count] is the target
    valuation stored in [targets.(k * width)] to
    [targets.(k * width + width - 1)], and [rates.(k)] is its rate.  Both
    arrays grow by doubling and are never shrunk, so a buffer reused
    across calls stops allocating once it has seen the largest fan-out. *)
type buffer = {
  width : int;  (** cells per row: the model's number of variables *)
  mutable targets : int array;
  mutable rates : float array;
  mutable count : int;  (** rows filled *)
}

val buffer : width:int -> buffer
(** An empty buffer for valuations of [width] cells. *)

val candidate : buffer -> int
(** Make room for one more row and return the offset in [targets] of row
    [count], where the caller writes a candidate target before handing it
    to {!add}. *)

val add : buffer -> state -> float -> unit
(** [add buf s rate] records the candidate row as a transition out of [s]:
    dropped when it equals [s] (a self-loop), added to the rate of an
    equal earlier row (first seen first), appended otherwise. *)

val equal_cells : int array -> int -> int array -> int -> int -> bool
(** [equal_cells a i b j width]: whether [a.(i) .. a.(i + width - 1)]
    equal [b.(j) .. b.(j + width - 1)] — how two valuations, or a
    valuation and a buffer row, are compared. *)

type t = {
  var_names : string array;
      (** one name per cell of a state, for diagnostics *)
  initial : state;
  successors : state -> buffer -> unit;
      (** [successors s buf] refills [buf] (from [count = 0]) with the
          outgoing transitions of [s]: rates [> 0], self-loops removed,
          duplicate targets merged, rows in a deterministic order *)
  reward : state -> float;  (** the state's reward rate [rho s >= 0] *)
  propositions : string list;  (** sorted atomic proposition names *)
  holds : state -> string -> bool;
      (** whether a proposition labels a state; unknown names raise
          {!Markov.Labeling.Unknown_proposition} *)
}

val describe : t -> state -> string
(** ["x=3,y=0"] — the valuation in variable order. *)

val of_mrm : Markov.Mrm.t -> Markov.Labeling.t -> init:int -> t
(** Wrap an explicit model as a successor function: states are the
    singleton valuations [\[|s|\]] of a variable ["s"], transitions come
    from the rate matrix (self-loop rates dropped — they do not change
    occupancy), rewards and propositions are the model's own.  Used to
    run the windowed engine against explicit models for testing and for
    {!Perf.Engine}'s [windowed] spec.  Impulse rewards are not
    representable here; wrapping a model with impulses raises
    [Invalid_argument]. *)
