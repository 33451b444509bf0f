(** Where a model comes from: the one resolver behind [csrl-check]'s
    model flags and the serving daemon's [load] request.

    A source is a built-in name ({!Builtin}), a ["<name>-drift[:PCT]"]
    interval variant of one, an [.mrm] file, a [.gcm] guarded-command
    program or an interval-model JSON file ({!Robust.Imrm_io}),
    optionally widened by a uniform rate drift.  It resolves to one of
    three model kinds: a point-valued model the checker answers
    precisely, an interval model it answers with envelopes and
    three-valued verdicts, or a program explored on demand. *)

type t =
  | Explicit of {
      mrm : Markov.Mrm.t;
      labeling : Markov.Labeling.t;
      init : Linalg.Vec.t;
    }
  | Interval of {
      imrm : Robust.Imrm.t;
      labeling : Markov.Labeling.t;
      init : Linalg.Vec.t;
    }
  | Program of { path : string; succ : Explore.Succ.t; epsilon : float }
      (** A program under the windowed engine, whose intervals are
          certified to the engine's [epsilon]. *)

type error =
  | Unknown_model of string
      (** A name that is neither a built-in nor a valid ["-drift"]
          variant of one; front-ends word this themselves (the CLI lists
          the alternatives). *)
  | Invalid of string
      (** A missing or malformed file, or a model that cannot be
          widened: a one-line message naming the file or model once,
          e.g. ["bad.mrm:2: state 5 out of range"]. *)

val resolve :
  engine:Perf.Engine.spec -> ?file:string -> ?drift:float -> ?imrm:string ->
  string -> (t, error) result
(** [resolve ~engine name] with the first of these that applies:

    - [imrm]: the interval model in that JSON file ([file], [drift] and
      [name] are ignored);
    - [file]: a [.gcm] file is a {!Program} under the windowed [engine],
      the only one that checks it without enumerating its states, and
      its materialised explicit twin (initial state [0], capped at
      {!Explore.Materialise.materialise}'s default limit) under any
      other; anything else is parsed as [.mrm] ([name] is ignored);
    - otherwise [name] is a built-in, or ["<base>-drift[:PCT]"] for the
      built-in [base] widened by [PCT] percent (default 10).

    [drift] (a percentage in [\[0, 100)], validated by the caller)
    widens the resolved explicit model into an {!Interval} one with
    {!Robust.Imrm.of_mrm}; it is {!Invalid} on a program and on a
    ["-drift"] name, and so is a model with impulse rewards, which
    interval models cannot represent.  A program whose twin exceeds the
    cap, or that fails at run time while its space is explored, is
    {!Invalid} too.  csrl-check and the serving daemon's [load] both
    resolve here. *)
