(** The NDJSON request/response protocol of the serving daemon.

    One JSON object per line in both directions.  Every request may
    carry an optional ["id"] string, echoed verbatim in the response so
    pipelining clients can correlate.  Responses are objects with
    [{"ok": true, "kind": ...}] on success and
    [{"ok": false, "error": <code>, "message": ...}] on failure.

    Request kinds:

    - [{"kind": "load", "model": NAME}] — load the named built-in model
      into the registry (or, with ["file": PATH], parse a [.mrm] file or
      a [.gcm] program and register it under NAME; or, with
      ["builtin": SOURCE], register
      the built-in SOURCE under the alias NAME with its own independent
      warm caches — ["file"] and ["builtin"] are mutually exclusive).
      With ["drift": PCT] the resolved model is widened by a uniform
      +/-PCT% relative drift into an interval-valued entry answering
      robust envelopes; with ["imrm": PATH] an interval model is parsed
      from PATH's JSON directly (["imrm"] excludes every other source
      field).  The source resolves through {!Models.Source.resolve}, as
      [csrl-check]'s model flags do: an unknown name answers
      [unknown_model], a missing or malformed file (or a model that
      cannot be widened) [load_error].  Reloading a name replaces its
      entry, warm caches included.
    - [{"kind": "list"}] — the registered models, sorted by name.
    - [{"kind": "evict", "model": NAME}] — drop a registry entry.
    - [{"kind": "check", "model": NAME, "query": CSRL}] — evaluate one
      CSRL query; the result object has the same shape as a
      [csrl-check --batch] result entry, so answers are comparable
      string-for-string.
    - [{"kind": "quantile", "model": NAME, "query": CSRL,
        "variable": "t"|"r", "target": P, "hi": B}] — least bound [x]
      in [(0, B]] of the chosen variable such that the query's until
      probability from the initial distribution reaches [P]
      (["tolerance"], default [1e-6], bounds the bisection width).
    - [{"kind": "frontier", "model": NAME, "query": FRONTIER}] — sweep a
      two-cost Pareto frontier; the query text is a frontier query
      ['frontier\[N\] P>=p ( phi U\[t<=T\]\[r<=R\] psi )'], so the grid
      size and target travel inside it (["tolerance"], default [1e-6],
      bounds the reward-axis bisection width).  Sharded by model like
      [check]; the answer lists the staircase points in time order.
    - [{"kind": "stats"}] — deterministic serving counters and per-model
      cache statistics (no timings; those live in [--trace] output).
    - [{"kind": "shutdown"}] — drain admitted work, acknowledge, stop.

    [check], [quantile] and [frontier] accept ["deadline_ms"]: a
    per-request budget counted from admission, enforced by cooperative
    cancellation checkpoints inside the numerical kernels.

    Error codes: [parse_error] (the line is not a JSON object),
    [bad_request] (unknown kind, missing or ill-typed fields),
    [unknown_model], [load_error], [query_parse_error],
    [unknown_proposition], [unsupported], [invalid_argument],
    [deadline_exceeded], [overloaded], [shutting_down], [internal]. *)

type variable = Time | Reward

type request =
  | Load of {
      model : string;
      file : string option;
      builtin : string option;
      drift : float option;   (** percent; widens into an interval model *)
      imrm : string option;   (** path of an interval-model JSON file *)
    }
  | Evict of { model : string }
  | List_models
  | Check of { model : string; query : string; deadline_ms : float option }
  | Quantile of {
      model : string;
      query : string;
      variable : variable;
      target : float;
      hi : float;
      tolerance : float;
      deadline_ms : float option;
    }
  | Frontier of {
      model : string;
      query : string;
      tolerance : float;
      deadline_ms : float option;
    }
  | Stats
  | Shutdown

type envelope = { id : string option; request : request }

type error = { code : string; message : string; error_id : string option }

val kind_of : request -> string
(** The wire name: ["load"], ["evict"], ["list"], ["check"],
    ["quantile"], ["frontier"], ["stats"], ["shutdown"]. *)

val model_of : request -> string option
(** The model the request is pinned to, when it has one — the key that
    picks its executor shard.  [None] for the global requests ([list],
    [stats], [shutdown]), which the session's writer runs once every
    earlier reply exists, before a later line is admitted. *)

val of_line : string -> (envelope, error) result
(** Parse one NDJSON line.  Never raises: malformed JSON yields
    [parse_error], a well-formed object with bad fields yields
    [bad_request] (echoing the ["id"] when one was readable). *)

val of_json : Io.Json.t -> (envelope, error) result

val to_json : envelope -> Io.Json.t
(** Render a request back to its wire object —
    [of_json (to_json e) = Ok e] for every envelope (the property the
    qcheck battery pins). *)

val equal_envelope : envelope -> envelope -> bool

val error : ?id:string -> code:string -> string -> error

val response_ok :
  kind:string -> id:string option -> (string * Io.Json.t) list -> Io.Json.t
(** [{"ok": true, "kind": kind, ("id": id,)? ...fields}]. *)

val response_error : error -> Io.Json.t
(** [{"ok": false, "error": code, "message": ..., ("id": ...)?}]. *)
