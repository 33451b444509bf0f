(** A minimal JSON tree: emitter and recursive-descent parser.

    Just enough for the batch, trace and server documents and their
    validators — no streaming, no number-preservation subtleties (all
    numbers are floats). *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

exception Parse_error of string * int
(** [Parse_error (message, offset)]: byte offset into the input. *)

val to_string : t -> string
(** Compact rendering (no insignificant whitespace).  Numbers are printed
    with enough digits to round-trip; raises [Invalid_argument] on
    non-finite numbers, which JSON cannot represent. *)

val of_string : string -> t
(** Parses a complete JSON document (trailing whitespace allowed,
    anything else raises {!Parse_error}).  Strings must be valid JSON
    string literals; [\uXXXX] escapes are decoded to UTF-8. *)

val member : string -> t -> t option
(** [member key (Object _)] looks up [key]; [None] on missing keys and on
    non-objects. *)

val to_float : t -> float option
(** [Some f] on [Number f], else [None]. *)

val to_text : t -> string option
(** [Some s] on [String s], else [None]. *)
