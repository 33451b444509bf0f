type config = {
  engine : Perf.Engine.spec;
  epsilon : float;
  pool : Parallel.Pool.t;
  queue_bound : int;
  executors : int;
  default_deadline_ms : float option;
  telemetry : Telemetry.t option;
  clock : unit -> float;
}

let default_config ?(clock = Unix.gettimeofday) () =
  { engine = Perf.Engine.default;
    epsilon = 1e-9;
    pool = Parallel.Pool.sequential;
    queue_bound = 64;
    executors = 1;
    default_deadline_ms = None;
    telemetry = None;
    clock }

(* Serving counters, deterministic for a single session at any executor
   count: everything except [overloaded] (reader-side rejections) is
   incremented in admission order relative to [stats] — model-pinned
   requests bump when their shard executes them, and [stats] runs only
   once every earlier reply of its session exists, before its reader
   admits a later line.  No timings in here — those live in
   telemetry. *)
type counters = {
  mutable c_load : int;
  mutable c_evict : int;
  mutable c_list : int;
  mutable c_check : int;
  mutable c_quantile : int;
  mutable c_frontier : int;
  mutable c_stats : int;
  mutable c_shutdown : int;
  mutable c_errors : int;
  mutable c_overloaded : int;
  mutable c_deadline_exceeded : int;
}

type outcome = Shutdown | Eof

type t = {
  config : config;
  reg : Registry.t;
  counters : counters;
  counters_lock : Mutex.t;
  exec_lock : Mutex.t;
  mutable exec : Executor.t option;
}

let registry t = t.reg

(* The resolver's typed errors as protocol errors: an unknown name is
   [unknown_model], a bad file or an impossible widening [load_error]. *)
let load_error ?id (e : Models.Source.error) =
  match e with
  | Models.Source.Unknown_model name ->
    Protocol.error ?id ~code:"unknown_model"
      (Printf.sprintf "unknown built-in model %S" name)
  | Models.Source.Invalid message ->
    Protocol.error ?id ~code:"load_error" message

let preload t names =
  List.fold_left
    (fun acc name ->
      match acc with
      | Error _ -> acc
      | Ok () -> begin
          match Registry.load t.reg ~name () with
          | Ok _ -> Ok ()
          | Error e -> Error (load_error e).Protocol.message
        end)
    (Ok ()) names

(* ------------------------------------------------------------------ *)
(* Response bodies.                                                    *)

(* Symbolic (successor-backed) models answer with a certified interval
   instead of a per-state vector: there is no enumerated state space to
   report over. *)
let symbolic_answer_json (a : Perf.Symbolic.answer) =
  [ ("value", Io.Json.Number a.Perf.Symbolic.value);
    ("delta", Io.Json.Number a.Perf.Symbolic.delta);
    ("lower", Io.Json.Number a.Perf.Symbolic.lower);
    ("upper", Io.Json.Number a.Perf.Symbolic.upper);
    ("fallback", Io.Json.Bool a.Perf.Symbolic.fallback) ]
  @
  match a.Perf.Symbolic.stats with
  | None -> []
  | Some s ->
    [ ("window",
       Io.Json.Object
         [ ("peak_window",
            Io.Json.Number (float_of_int s.Explore.Windowed.peak_window));
           ("states_expanded",
            Io.Json.Number (float_of_int s.Explore.Windowed.states_expanded));
           ("mass_dropped", Io.Json.Number s.Explore.Windowed.mass_dropped);
           ("iterations",
            Io.Json.Number (float_of_int s.Explore.Windowed.iterations));
           ("restarts",
            Io.Json.Number (float_of_int s.Explore.Windowed.restarts));
           ("rate", Io.Json.Number s.Explore.Windowed.rate) ]) ]

let symbolic_verdict_json (outcome : Perf.Symbolic.outcome) =
  match outcome with
  | Perf.Symbolic.Numeric a ->
    ("kind", Io.Json.String "numeric") :: symbolic_answer_json a
  | Perf.Symbolic.Boolean (sat, a) ->
    [ ("kind", Io.Json.String "boolean"); ("satisfied", Io.Json.Bool sat) ]
    @ (match a with None -> [] | Some a -> symbolic_answer_json a)

let entry_states (e : Registry.entry) =
  match e.Registry.payload with
  | Registry.Checked { ctx; _ } -> Markov.Mrm.n_states (Checker.mrm ctx)
  | Registry.Symbolic { sym; _ } -> Perf.Symbolic.n_states sym

(* ------------------------------------------------------------------ *)
(* Request execution.                                                  *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let bump t request =
  Mutex.protect t.counters_lock (fun () ->
      let c = t.counters in
      match (request : Protocol.request) with
      | Load _ -> c.c_load <- c.c_load + 1
      | Evict _ -> c.c_evict <- c.c_evict + 1
      | List_models -> c.c_list <- c.c_list + 1
      | Check _ -> c.c_check <- c.c_check + 1
      | Quantile _ -> c.c_quantile <- c.c_quantile + 1
      | Frontier _ -> c.c_frontier <- c.c_frontier + 1
      | Stats -> c.c_stats <- c.c_stats + 1
      | Shutdown -> c.c_shutdown <- c.c_shutdown + 1)

let resolve t ?id model =
  match Registry.find t.reg model with
  | Some entry -> Ok entry
  | None ->
    Error
      (Protocol.error ?id ~code:"unknown_model"
         (Printf.sprintf "model %S is not loaded" model))

let parse_query ?id text =
  match Logic.Parser.query text with
  | q -> Ok q
  | exception Logic.Parser.Parse_error (message, pos) ->
    Error
      (Protocol.error ?id ~code:"query_parse_error"
         (Printf.sprintf "parse error at position %d: %s" pos message))

let deadline_token t ~admitted ?id request =
  let budget =
    match (request : Protocol.request) with
    | Check { deadline_ms; _ } | Quantile { deadline_ms; _ }
    | Frontier { deadline_ms; _ } -> begin
        match deadline_ms with
        | Some _ as b -> b
        | None -> t.config.default_deadline_ms
      end
    | _ -> None
  in
  match budget with
  | None -> Ok None
  | Some ms ->
    let deadline = admitted +. (ms /. 1000.0) in
    if t.config.clock () >= deadline then
      Error
        (Protocol.error ?id ~code:"deadline_exceeded"
           (Printf.sprintf "deadline of %g ms expired in the queue" ms))
    else Ok (Some (Numerics.Cancel.of_deadline ~clock:t.config.clock deadline))

(* Per-request solve failures, uniformly mapped to error responses so
   one bad request never kills the daemon. *)
let guarded ?id f =
  match f () with
  | v -> Ok v
  | exception Numerics.Cancel.Cancelled reason ->
    Error (Protocol.error ?id ~code:"deadline_exceeded" reason)
  | exception Checker.Unsupported message ->
    Error (Protocol.error ?id ~code:"unsupported" message)
  | exception Perf.Symbolic.Unsupported message ->
    Error (Protocol.error ?id ~code:"unsupported" message)
  | exception Lang.Gcm.Runtime_error message ->
    Error (Protocol.error ?id ~code:"model_runtime_error" message)
  | exception Markov.Labeling.Unknown_proposition p ->
    Error
      (Protocol.error ?id ~code:"unknown_proposition"
         (Printf.sprintf "unknown atomic proposition %S" p))
  | exception Invalid_argument message ->
    Error (Protocol.error ?id ~code:"invalid_argument" message)
  | exception Failure message ->
    Error (Protocol.error ?id ~code:"internal" message)

let stats_json t =
  let c = t.counters in
  let requests, errors, overloaded, deadline_exceeded =
    Mutex.protect t.counters_lock (fun () ->
        let total =
          c.c_load + c.c_evict + c.c_list + c.c_check + c.c_quantile
          + c.c_frontier + c.c_stats + c.c_shutdown
        in
        ( [ ("check", c.c_check); ("evict", c.c_evict);
            ("frontier", c.c_frontier); ("list", c.c_list);
            ("load", c.c_load); ("quantile", c.c_quantile);
            ("shutdown", c.c_shutdown); ("stats", c.c_stats);
            ("total", total) ],
          c.c_errors, c.c_overloaded, c.c_deadline_exceeded ))
  in
  let int_field (name, v) = (name, Io.Json.Number (float_of_int v)) in
  let models =
    List.map
      (fun (e : Registry.entry) ->
        let cache =
          match e.Registry.payload with
          | Registry.Checked { memo; _ } ->
            Batch.caches_json (Checker.memo_counters memo)
          | Registry.Symbolic { sym; _ } ->
            Io.Json.Object
              [ ("query_memo_entries",
                 Io.Json.Number (float_of_int (Perf.Symbolic.memo_size sym))) ]
        in
        Io.Json.Object
          [ ("name", Io.Json.String e.Registry.name);
            ("states", Io.Json.Number (float_of_int (entry_states e)));
            ("cache", cache) ])
      (Registry.entries t.reg)
  in
  [ ("requests", Io.Json.Object (List.map int_field requests));
    ("errors", Io.Json.Number (float_of_int errors));
    ("overloaded", Io.Json.Number (float_of_int overloaded));
    ("deadline_exceeded", Io.Json.Number (float_of_int deadline_exceeded));
    ("models", Io.Json.List models);
    ("fox_glynn", Batch.counters_json (Numerics.Fox_glynn.cache_counters ()))
  ]

let run_request t ~admitted ~id request =
  let ok = Protocol.response_ok ~id in
  match (request : Protocol.request) with
  | Load { model; file; builtin; drift; imrm } -> begin
      match Registry.load t.reg ~name:model ?builtin ?file ?drift ?imrm () with
      | Error e -> Error (load_error ?id e)
      | Ok entry ->
        let number n = Io.Json.Number (float_of_int n) in
        let shape =
          match entry.Registry.payload with
          | Registry.Checked { ctx; _ } -> begin
              match Checker.robust_model ctx with
              | None ->
                let mrm = Checker.mrm ctx in
                [ ("states", number (Markov.Mrm.n_states mrm));
                  ("transitions",
                   number
                     (Linalg.Csr.nnz (Markov.Ctmc.rates (Markov.Mrm.ctmc mrm))))
                ]
              | Some imrm ->
                [ ("robust", Io.Json.Bool true);
                  ("states", number (Robust.Imrm.n_states imrm));
                  ("transitions", number (Robust.Imrm.n_transitions imrm));
                  ("max_width", Io.Json.Number (Robust.Imrm.max_width imrm)) ]
            end
          | Registry.Symbolic { sym; _ } ->
            (* The reachable space is discovered on demand; only the
               interned count (the initial state, at load time) exists. *)
            [ ("symbolic", Io.Json.Bool true);
              ("states_interned", number (Perf.Symbolic.n_states sym)) ]
        in
        Ok (ok ~kind:"load" (("model", Io.Json.String model) :: shape))
    end
  | Evict { model } ->
    if Registry.evict t.reg model then
      Ok (ok ~kind:"evict" [ ("model", Io.Json.String model) ])
    else
      Error
        (Protocol.error ?id ~code:"unknown_model"
           (Printf.sprintf "model %S is not loaded" model))
  | List_models ->
    let models =
      List.map
        (fun (e : Registry.entry) ->
          Io.Json.Object
            [ ("name", Io.Json.String e.Registry.name);
              ("states", Io.Json.Number (float_of_int (entry_states e))) ])
        (Registry.entries t.reg)
    in
    Ok (ok ~kind:"list" [ ("models", Io.Json.List models) ])
  | Check { model; query; _ } ->
    let* entry = resolve t ?id model in
    let* q = parse_query ?id query in
    let* token = deadline_token t ~admitted ?id request in
    let header =
      [ ("model", Io.Json.String model);
        ("query", Io.Json.String (Format.asprintf "%a" Logic.Ast.pp_query q))
      ]
    in
    (match entry.Registry.payload with
     | Registry.Checked { ctx; memo; init } ->
       let ctx = Checker.with_cancel ctx token in
       let* verdict =
         Registry.exclusively entry (fun () ->
             guarded ?id (fun () -> Checker.eval_query ~memo ctx q))
       in
       let result = Io.Json.Object (Batch.verdict_json ~init verdict) in
       Ok (ok ~kind:"check" (header @ [ ("result", result) ]))
     | Registry.Symbolic { sym; _ } ->
       (* The server's engine config only constrains the epsilon here: a
          symbolic model is always solved by the windowed engine. *)
       let epsilon =
         match t.config.engine with
         | Perf.Engine.Windowed { epsilon } -> epsilon
         | _ -> t.config.epsilon
       in
       let* outcome =
         Registry.exclusively entry (fun () ->
             guarded ?id (fun () ->
                 Perf.Symbolic.eval ?telemetry:t.config.telemetry
                   ?cancel:token ~epsilon sym q))
       in
       Ok
         (ok ~kind:"check"
            (header
            @ [ ("result", Io.Json.Object (symbolic_verdict_json outcome)) ])))
  | Quantile { model; query; variable; target; hi; tolerance; _ } ->
    let* entry = resolve t ?id model in
    let* q = parse_query ?id query in
    let* time, reward, phi, psi =
      match q with
      | Logic.Ast.Prob_query (Logic.Ast.Until (time, reward, phi, psi)) ->
        Ok (time, reward, phi, psi)
      | _ ->
        Error
          (Protocol.error ?id ~code:"bad_request"
             "quantile needs a P=? query whose path formula is an until")
    in
    let* ctx, memo, init =
      match entry.Registry.payload with
      | Registry.Checked { ctx; _ } when Checker.is_robust ctx ->
        Error
          (Protocol.error ?id ~code:"unsupported"
             "quantile search needs point probabilities; check the interval \
              model's envelopes with P queries instead")
      | Registry.Checked { ctx; memo; init } -> Ok (ctx, memo, init)
      | Registry.Symbolic _ ->
        Error
          (Protocol.error ?id ~code:"unsupported"
             "quantile search runs on explicit models only; check the .gcm \
              model directly or load its materialised .mrm")
    in
    let* token = deadline_token t ~admitted ?id request in
    let ctx = Checker.with_cancel ctx token in
    let eval x =
      (* The bound on the chosen variable in the query text is a
         placeholder: each probe re-solves with that bound set to [x].
         The pipeline cache is keyed by the Sat-sets only, so every
         iteration after the first reuses the prepared pipeline. *)
      let time, reward =
        match variable with
        | Protocol.Time -> (Numerics.Time_interval.upto x, reward)
        | Protocol.Reward -> (time, Numerics.Time_interval.upto x)
      in
      let probe =
        Logic.Ast.Prob_query (Logic.Ast.Until (time, reward, phi, psi))
      in
      match Checker.eval_query ~memo ctx probe with
      | Checker.Numeric values -> Linalg.Vec.dot init values
      | _ -> assert false
    in
    let* outcome =
      Registry.exclusively entry (fun () ->
          guarded ?id (fun () ->
              Perf.Frontier.probe ~eval ~target ~hi ~tolerance))
    in
    Ok
      (ok ~kind:"quantile"
         [ ("model", Io.Json.String model);
           ("variable",
            Io.Json.String
              (match variable with Protocol.Time -> "t" | Reward -> "r"));
           ("target", Io.Json.Number target);
           ("hi", Io.Json.Number hi);
           ("tolerance", Io.Json.Number tolerance);
           ("value",
            (match outcome.Perf.Frontier.value with
             | None -> Io.Json.Null
             | Some v -> Io.Json.Number v));
           ("achieved", Io.Json.Number outcome.Perf.Frontier.achieved);
           ("evaluations",
            Io.Json.Number (float_of_int outcome.Perf.Frontier.evaluations)) ])
  | Frontier { model; query; tolerance; _ } ->
    let* entry = resolve t ?id model in
    let* q = parse_query ?id query in
    let* () =
      match q with
      | Logic.Ast.Frontier_query _ -> Ok ()
      | _ ->
        Error
          (Protocol.error ?id ~code:"bad_request"
             "frontier needs a frontier query: 'frontier[N] P>=p ( phi \
              U[t<=T][r<=R] psi )'")
    in
    let* ctx, memo, init =
      match entry.Registry.payload with
      | Registry.Checked { ctx; memo; init } -> Ok (ctx, memo, init)
      | Registry.Symbolic _ ->
        Error
          (Protocol.error ?id ~code:"unsupported"
             "frontier sweeps run on explicit models only; check the .gcm \
              model directly or load its materialised .mrm")
    in
    let* token = deadline_token t ~admitted ?id request in
    let ctx = Checker.with_cancel ctx token in
    (* Every probe is an ordinary solve with the entry's memo, so the
       sweep shares the model's warm caches with check/quantile traffic
       and each point stays bit-identical to a cold check of the same
       bounds. *)
    let* f =
      Registry.exclusively entry (fun () ->
          guarded ?id (fun () ->
              Batch.Frontier.run ?telemetry:t.config.telemetry
                ~memo ~tolerance ctx ~init q))
    in
    Ok
      (ok ~kind:"frontier"
         ([ ("model", Io.Json.String model);
            ("query",
             Io.Json.String (Format.asprintf "%a" Logic.Ast.pp_query q)) ]
         @ Batch.Frontier.bounds_json f
         @ [ ("points", Batch.Frontier.points_json f.Batch.Frontier.points);
             ("evaluations",
              Io.Json.Number (float_of_int f.Batch.Frontier.evaluations)) ]))
  | Stats -> Ok (ok ~kind:"stats" (stats_json t))
  | Shutdown -> Ok (ok ~kind:"shutdown" [])

let count_error t (e : Protocol.error) =
  Mutex.protect t.counters_lock (fun () ->
      t.counters.c_errors <- t.counters.c_errors + 1;
      if e.Protocol.code = "deadline_exceeded" then
        t.counters.c_deadline_exceeded <- t.counters.c_deadline_exceeded + 1)

let execute t ?admitted ({ id; request } : Protocol.envelope) =
  let admitted =
    match admitted with Some a -> a | None -> t.config.clock ()
  in
  bump t request;
  Telemetry.add t.config.telemetry "server.requests" 1;
  Telemetry.with_span t.config.telemetry
    ("server." ^ Protocol.kind_of request)
  @@ fun () ->
  Telemetry.record t.config.telemetry "server.queue_wait_seconds"
    (t.config.clock () -. admitted);
  match run_request t ~admitted ~id request with
  | Ok response -> response
  | Error e ->
    count_error t e;
    Telemetry.add t.config.telemetry "server.error_responses" 1;
    Protocol.response_error e

(* ------------------------------------------------------------------ *)
(* The executor pool: N domains, sharded by model name, spawned by the
   first session.                                                       *)

(* FNV-1a (64-bit) over the model name.  [Hashtbl.hash] is seeded per
   process on some configurations and its value is unspecified across
   compiler versions, so it cannot pin model->shard assignments in docs,
   tests, or multi-process deployments; FNV-1a is stable by
   construction. *)
let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let shard_of_name ~executors name =
  if executors < 1 then invalid_arg "shard_of_name: executors must be >= 1";
  Int64.to_int (Int64.unsigned_rem (fnv1a64 name) (Int64.of_int executors))

(* An exception that escapes [execute] (it guards all per-request
   failures, so this is a bug path) must still fill its slot: an empty
   slot would wedge the session's writer. *)
let execute_total t ~admitted ({ Protocol.id; _ } as env) =
  match execute t ~admitted env with
  | response -> response
  | exception exn ->
    let e =
      Protocol.error ?id ~code:"internal"
        (Printf.sprintf "unexpected exception: %s" (Printexc.to_string exn))
    in
    count_error t e;
    Protocol.response_error e

let executor t =
  Mutex.protect t.exec_lock (fun () ->
      match t.exec with
      | Some exec -> exec
      | None ->
        let exec =
          Executor.create ~shards:t.config.executors
            ~queue_bound:t.config.queue_bound
        in
        t.exec <- Some exec;
        exec)

let stop t =
  let exec =
    Mutex.protect t.exec_lock (fun () ->
        let exec = t.exec in
        t.exec <- None;
        exec)
  in
  Option.iter Executor.stop exec

let create config =
  if config.executors < 1 then
    invalid_arg "Service.create: executors must be >= 1";
  if config.queue_bound < 1 then
    invalid_arg "Service.create: queue_bound must be >= 1";
  let make_ctx mrm labeling =
    Checker.make ~engine:config.engine ~epsilon:config.epsilon
      ~pool:config.pool ?telemetry:config.telemetry mrm labeling
  in
  let make_robust_ctx imrm labeling =
    Checker.make_robust ~engine:config.engine ~epsilon:config.epsilon
      ~pool:config.pool ?telemetry:config.telemetry imrm labeling
  in
  { config;
    reg = Registry.create ~make_ctx ~make_robust_ctx ();
    counters =
      { c_load = 0; c_evict = 0; c_list = 0; c_check = 0; c_quantile = 0;
        c_frontier = 0; c_stats = 0; c_shutdown = 0; c_errors = 0;
        c_overloaded = 0; c_deadline_exceeded = 0 };
    counters_lock = Mutex.create ();
    exec_lock = Mutex.create ();
    exec = None }

(* ------------------------------------------------------------------ *)
(* Sessions: a reader thread admits each line into the session's slot
   queue and hands a model request to its shard; a writer thread emits
   the slots in admission order.                                        *)

(* A response slot: filled by the executor that runs a model request,
   by the reader for a line it answers itself (malformed, or read after
   [shutdown]), or by the writer for a request with no model
   ([global]), which it runs when the slot reaches the head of the
   queue. *)
type slot = {
  global : (Protocol.envelope * float) option;
  mutable reply : Io.Json.t option;
}

(* One session over [input]/[output]; [on_shutdown] runs on the writer
   as soon as the reply to a [shutdown] request is produced, before the
   session ends. *)
let serve_session ~on_shutdown t ~input ~output =
  let exec = executor t in
  let out_lock = Mutex.create () in
  let write_json json =
    (* A vanished client (EPIPE) must not kill the session: keep
       draining so the reader reaches EOF and the state stays clean. *)
    try
      Mutex.protect out_lock (fun () ->
          output_string output (Io.Json.to_string json);
          output_char output '\n';
          flush output)
    with Sys_error _ -> ()
  in
  (* [None] marks the end of input. *)
  let slots = Admission.create ~bound:t.config.queue_bound in
  let lock = Mutex.create () and filled = Condition.create () in
  let fill slot reply =
    Mutex.protect lock (fun () ->
        slot.reply <- Some reply;
        Condition.broadcast filled)
  in
  let await slot =
    Mutex.protect lock (fun () ->
        while Option.is_none slot.reply do
          Condition.wait filled lock
        done;
        Option.get slot.reply)
  in
  let outcome = ref Eof and draining = ref false in
  let admit line =
    let envelope =
      match Protocol.of_line line with
      | Ok { Protocol.id; _ } | Error { Protocol.error_id = id; _ }
        when !draining ->
        Error
          (Protocol.error ?id ~code:"shutting_down"
             "the server is draining and stops accepting requests")
      | parsed -> parsed
    in
    let admitted = t.config.clock () in
    let slot =
      match envelope with
      | Error e -> { global = None; reply = Some (Protocol.response_error e) }
      | Ok env when Protocol.model_of env.Protocol.request = None ->
        { global = Some (env, admitted); reply = None }
      | Ok _ -> { global = None; reply = None }
    in
    if not (Admission.try_push slots (Some slot)) then begin
      Mutex.protect t.counters_lock (fun () ->
          t.counters.c_overloaded <- t.counters.c_overloaded + 1);
      Telemetry.add t.config.telemetry "server.overloaded" 1;
      let id =
        match envelope with
        | Ok env -> env.Protocol.id
        | Error e -> e.Protocol.error_id
      in
      write_json
        (Protocol.response_error
           (Protocol.error ?id ~code:"overloaded"
              (Printf.sprintf "session queue full (%d requests unanswered)"
                 t.config.queue_bound)))
    end
    else
      match envelope with
      | Error e -> count_error t e
      | Ok ({ Protocol.request; _ } as env) -> begin
          match Protocol.model_of request with
          | Some model ->
            Executor.submit exec
              ~shard:(shard_of_name ~executors:t.config.executors model)
              (fun () -> fill slot (execute_total t ~admitted env))
          | None ->
            (* The writer answers it once every earlier reply exists; no
               later line is admitted before that. *)
            ignore (await slot);
            if request = Protocol.Shutdown then draining := true
        end
  in
  let reader () =
    let rec loop () =
      match input_line input with
      | exception (End_of_file | Sys_error _) ->
        Admission.push_control slots None
      | line ->
        if String.trim line <> "" then admit line;
        loop ()
    in
    loop ()
  in
  let writer () =
    let rec drain () =
      match Admission.peek slots with
      | None -> ()
      | Some slot ->
        Option.iter
          (fun ((env : Protocol.envelope), admitted) ->
            let reply = execute_total t ~admitted env in
            if env.request = Protocol.Shutdown then begin
              outcome := Shutdown;
              on_shutdown ()
            end;
            fill slot reply)
          slot.global;
        write_json (await slot);
        ignore (Admission.pop slots);
        drain ()
    in
    drain ()
  in
  let reader_thread = Thread.create reader () in
  let writer_thread = Thread.create writer () in
  Thread.join reader_thread;
  Thread.join writer_thread;
  !outcome

let serve_channels t ~input ~output =
  serve_session ~on_shutdown:ignore t ~input ~output

let serve_stdio t = serve_channels t ~input:stdin ~output:stdout

(* ------------------------------------------------------------------ *)
(* Listeners: Unix-domain and TCP accept loops over one shared session
   machinery.  Connections are served concurrently, each with its own
   reader/writer; the executor pool and registry are service-global.   *)

type listener = {
  lfd : Unix.file_descr;
  cleanup : unit -> unit;
}

let unix_listener ~path =
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  with
  | fd ->
    Ok
      { lfd = fd;
        cleanup =
          (fun () -> try Unix.unlink path with Unix.Unix_error _ -> ()) }
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message err))

let tcp_listener ~host ~port =
  match
    let addr =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found | Invalid_argument _ ->
          failwith (Printf.sprintf "cannot resolve host %S" host))
    in
    let fd = Unix.socket (Unix.domain_of_sockaddr (Unix.ADDR_INET (addr, 0)))
        Unix.SOCK_STREAM 0
    in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 64;
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    (fd, bound)
  with
  | fd, bound -> Ok ({ lfd = fd; cleanup = (fun () -> ()) }, bound)
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "cannot bind %s:%d: %s" host port
         (Unix.error_message err))
  | exception Failure message -> Error message

(* How long an accept loop waits in select(2) before it looks at the
   stop flag again: the longest a shutdown leaves a listener open. *)
let accept_poll_s = 0.1

let serve_listeners t listeners =
  ignore (executor t);
  let stopping = Atomic.make false in
  let sessions_lock = Mutex.create () in
  let sessions = ref [] in
  let handle client =
    let thread =
      Thread.create
        (fun () ->
          let input = Unix.in_channel_of_descr client
          and output = Unix.out_channel_of_descr client in
          let on_shutdown () = Atomic.set stopping true in
          ignore (serve_session ~on_shutdown t ~input ~output : outcome);
          (* The channels share one descriptor: closing the out side
             flushes and closes it.  The in side is left to the GC, which
             never closes descriptors: a second close could hit the
             number after accept(2) has handed it to a new connection. *)
          close_out_noerr output)
        ()
    in
    Mutex.protect sessions_lock (fun () -> sessions := thread :: !sessions)
  in
  (* Accept via a polling select so a shutdown served on one connection
     stops every accept loop within one poll — closing a descriptor
     another thread is blocked in accept(2) on is not portable.  The
     flag is set when the shutdown reply is produced, not when its
     session ends: a client that keeps its socket open must not keep the
     daemon accepting. *)
  let accept_loop l () =
    let rec loop () =
      if not (Atomic.get stopping) then begin
        match Unix.select [ l.lfd ] [] [] accept_poll_s with
        | [], _, _ -> loop ()
        | _ -> begin
            match Unix.accept l.lfd with
            | client, _ when Atomic.get stopping ->
              (try Unix.close client with Unix.Unix_error _ -> ())
            | client, peer ->
              (* With several requests in flight, Nagle's algorithm
                 would hold each small reply until the client
                 acknowledged the previous one, and clients delay that
                 acknowledgement.  Unix-domain sockets reject the
                 option. *)
              (match peer with
               | Unix.ADDR_INET _ -> (
                 try Unix.setsockopt client Unix.TCP_NODELAY true
                 with Unix.Unix_error _ -> ())
               | Unix.ADDR_UNIX _ -> ());
              handle client;
              loop ()
            | exception Unix.Unix_error _ ->
              if Atomic.get stopping then () else loop ()
          end
        | exception Unix.Unix_error _ ->
          if Atomic.get stopping then () else loop ()
      end
    in
    loop ()
  in
  (* The listeners close once no accept loop runs: new connections are
     refused from then on, while the live sessions drain. *)
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun l ->
          (try Unix.close l.lfd with Unix.Unix_error _ -> ());
          l.cleanup ())
        listeners)
    (fun () ->
      let acceptors = List.map (fun l -> Thread.create (accept_loop l) ()) listeners in
      List.iter Thread.join acceptors);
  (* Drain active sessions before returning so the registry is quiet
     when the caller stops the service. *)
  let rec join_all () =
    let pending =
      Mutex.protect sessions_lock (fun () ->
          let p = !sessions in
          sessions := [];
          p)
    in
    match pending with
    | [] -> ()
    | threads ->
      List.iter Thread.join threads;
      join_all ()
  in
  join_all ()

let serve_socket t ~path =
  match unix_listener ~path with
  | Ok l -> serve_listeners t [ l ]
  | Error message -> failwith message
