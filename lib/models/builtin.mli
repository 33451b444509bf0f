(** The named built-in models, shared by the CLI front-ends and the
    serving daemon's model registry.

    Each entry resolves a stable name to a freshly built model, its
    labeling, and the canonical initial distribution used by every
    front-end when collapsing per-state answers to one number. *)

val all : (string * string) list
(** [(name, one-line description)] pairs, in display order. *)

val load :
  string -> (Markov.Mrm.t * Markov.Labeling.t * Linalg.Vec.t) option
(** [load name] builds the named model, or [None] for unknown names.
    Each call constructs a fresh model (models are immutable, so callers
    may also share one). *)

val all_robust : (string * string) list
(** Display entries for the ["<name>-drift[:PCT]"] interval variants
    that {!Source.resolve} widens from these builtins. *)
