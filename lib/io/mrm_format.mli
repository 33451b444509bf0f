(** A small textual format for labelled Markov reward models, so the CLI
    can check user-supplied models.

    {v
    # comment
    states 5
    reward 0 100        # state, reward rate (default 0)
    rate 0 1 6.0        # source, target, rate
    impulse 0 1 2.5     # impulse reward on an existing transition
    label call_idle 0 3 # proposition, then the states carrying it
    init 0 1.0          # initial distribution entry (default: state 0)
    v}

    Lines may appear in any order after [states]; blank lines and [#]
    comments are ignored. *)

type document = {
  mrm : Markov.Mrm.t;
  labeling : Markov.Labeling.t;
  init : Linalg.Vec.t;
}

exception Syntax_error of string * int
(** Message and 1-based line number. *)

val parse : string -> document
(** Parses the format above.  Raises {!Syntax_error} on malformed input
    (including a missing [states] line, indices out of range, duplicate
    labels, or an initial distribution that does not sum to one). *)

val parse_file : string -> document
(** Reads and parses a file: {!Syntax_error} as for {!parse} (the
    message does not name the file), [Sys_error] on IO failure. *)

val print : document -> string
(** Renders back into the textual format; [parse (print d)] reproduces the
    model up to representation. *)
