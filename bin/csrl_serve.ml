(* csrl-serve: persistent CSRL model-checking daemon.

   Speaks the NDJSON protocol of lib/server on stdin/stdout (default) or
   a Unix-domain socket (--socket PATH), keeping loaded models and their
   solver caches warm across requests and connections.

     csrl-serve --preload adhoc,cluster --socket /tmp/csrl.sock
     csrl-client --connect /tmp/csrl.sock <<'EOF'
     {"kind": "check", "model": "adhoc", "query": "P=? ( F[t<=2] doze )"}
     EOF *)

let monotonic_seconds () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let invalid message =
  prerr_endline message;
  exit 2

(* --executors and --tcp are validated by hand (not by cmdliner's
   converters) so bad values exit 2 with a one-line message, matching
   the other flags. *)
let parse_executors = function
  | None -> 1
  | Some text -> begin
      match int_of_string_opt (String.trim text) with
      | Some n when n >= 1 -> n
      | Some _ | None -> invalid "--executors needs a positive count"
    end

let parse_tcp = function
  | None -> None
  | Some text -> begin
      match String.rindex_opt text ':' with
      | None -> invalid "--tcp needs HOST:PORT with a numeric port"
      | Some i ->
        let host = String.sub text 0 i in
        let port_text = String.sub text (i + 1) (String.length text - i - 1) in
        (match int_of_string_opt port_text with
         | Some port when host <> "" && port >= 0 && port <= 65535 ->
           Some (host, port)
         | Some _ | None -> invalid "--tcp needs HOST:PORT with a numeric port")
    end

let run socket tcp executors jobs queue deadline engine_text epsilon
    preload_text trace stats =
  let executors = parse_executors executors in
  let tcp = parse_tcp tcp in
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | Some _ -> invalid "--jobs needs a positive count"
    | None -> 1
  in
  if queue < 1 then invalid "--queue needs a positive capacity";
  (match deadline with
   | Some ms when not (ms > 0.0) -> invalid "--deadline needs a positive budget in milliseconds"
   | _ -> ());
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid "--epsilon needs a value in (0,1)";
  let engine =
    match Perf.Engine.of_string engine_text with
    | Ok e -> e
    | Error message -> invalid message
  in
  let preload_names =
    match preload_text with
    | None -> []
    | Some text ->
      String.split_on_char ',' text
      |> List.map String.trim
      |> List.filter (fun n -> n <> "")
  in
  let telemetry =
    if trace <> None || stats then
      Some (Telemetry.create ~clock:monotonic_seconds ())
    else None
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Parallel.Pool.with_pool ~jobs @@ fun pool ->
  (if trace <> None then
     Option.iter
       (fun tel -> Parallel.Pool.instrument pool (Telemetry.clock tel))
       telemetry);
  let config =
    { (Server.Service.default_config ~clock:monotonic_seconds ()) with
      Server.Service.engine;
      epsilon;
      pool;
      queue_bound = queue;
      executors;
      default_deadline_ms = deadline;
      telemetry }
  in
  let server = Server.Service.create config in
  (match Server.Service.preload server preload_names with
   | Ok () -> ()
   | Error message -> invalid ("--preload: " ^ message));
  (match (socket, tcp) with
   | None, None -> ignore (Server.Service.serve_stdio server)
   | _ ->
     let listeners = ref [] in
     (match socket with
      | None -> ()
      | Some path ->
        (match Server.Service.unix_listener ~path with
         | Ok l -> listeners := l :: !listeners
         | Error message -> invalid ("--socket: " ^ message)));
     (match tcp with
      | None -> ()
      | Some (host, port) ->
        (match Server.Service.tcp_listener ~host ~port with
         | Ok (l, bound) ->
           (* The bound port goes to stderr (stdout stays reserved for
              the protocol) so scripts using port 0 can find it. *)
           Printf.eprintf "csrl-serve: listening on %s:%d\n%!" host bound;
           listeners := l :: !listeners
         | Error message -> invalid ("--tcp: " ^ message)));
     Server.Service.serve_listeners server !listeners);
  Server.Service.stop server;
  Option.iter
    (fun tel ->
      Io.Trace.record_pool_stats tel pool;
      (match trace with
       | None -> ()
       | Some path ->
         let document =
           Io.Json.Object
             [ ("tool", Io.Json.String "csrl-serve");
               ("jobs", Io.Json.Number (float_of_int jobs));
               ("telemetry", Io.Trace.to_json tel) ]
         in
         Out_channel.with_open_text path (fun oc ->
             output_string oc (Io.Json.to_string document);
             output_char oc '\n'));
      (* The protocol owns stdout; the deterministic counters go to
         stderr so scripted sessions can still pin them. *)
      if stats then Io.Trace.print_stats stderr tel)
    telemetry

open Cmdliner

let socket_arg =
  let doc =
    "Serve on a Unix-domain socket bound at $(docv) (replacing a stale \
     socket file); model registry and solver caches persist across \
     connections, which are served concurrently.  Without this flag or \
     $(b,--tcp) the daemon serves a single session on stdin/stdout."
  in
  Arg.(value & opt (some string) None & info [ "s"; "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc =
    "Also serve on TCP at $(docv) (HOST:PORT; port 0 picks an ephemeral \
     port).  The bound address is reported on standard error as \
     $(b,csrl-serve: listening on HOST:PORT).  May be combined with \
     $(b,--socket); both listeners share one registry and executor pool."
  in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let executors_arg =
  let doc =
    "Run $(docv) executor domains (default 1).  Each session's reader \
     hands a request straight to the executor of its model — all \
     requests on one model run on one executor in admission order \
     against its warm caches — and each session's responses are emitted \
     strictly in admission order, so transcripts are byte-identical at \
     every executor count."
  in
  Arg.(value & opt (some string) None & info [ "executors" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Run the numerical kernels on $(docv) domains (default 1: the exact \
     sequential code).  Orthogonal to $(b,--executors): --jobs fans out \
     within a request, --executors runs requests on different models \
     concurrently."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let queue_arg =
  let doc =
    "Unanswered requests one session may have, and each executor's \
     queue capacity (default 64).  A line past that bound is rejected \
     immediately with an $(b,overloaded) error instead of blocking the \
     connection."
  in
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Default per-request deadline in milliseconds for check and quantile \
     requests (counted from admission; a request's own deadline_ms takes \
     precedence).  Expired requests answer $(b,deadline_exceeded); the \
     solvers abandon the work at their next cancellation checkpoint, \
     leaving the warm caches unpoisoned."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"MS" ~doc)

let engine_arg =
  let doc =
    "Numerical engine for time- and reward-bounded until: sericola[:eps], \
     erlang[:phases] or discretise[:step]."
  in
  Arg.(value & opt string "sericola" & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

let epsilon_arg =
  let doc = "Accuracy of transient analyses (must be in (0,1))." in
  Arg.(value & opt float 1e-9 & info [ "epsilon" ] ~docv:"EPS" ~doc)

let preload_arg =
  let doc =
    "Comma-separated built-in models to load into the registry before \
     serving (adhoc, adhoc-srn, multiprocessor, multiprocessor-tracked, \
     cluster, queue)."
  in
  Arg.(value & opt (some string) None & info [ "preload" ] ~docv:"NAMES" ~doc)

let trace_arg =
  let doc =
    "Write a JSON telemetry trace to $(docv) on exit: per-request serving \
     spans (server.check, server.quantile, ...), queue-wait gauges, and \
     the convergence counters of every numerical procedure run."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_arg =
  let doc =
    "Print the run's counters and gauges to standard error on exit (the \
     deterministic subset of --trace; stdout stays reserved for the \
     protocol)."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let cmd =
  let doc = "serve CSRL model-checking requests from a warm, persistent process" in
  let man =
    [ `S Manpage.s_description;
      `P
        "A long-running front-end over the same checking stack as \
         $(b,csrl-check): clients send newline-delimited JSON requests \
         (load/list/evict models, check CSRL queries, bisect quantiles, \
         read serving stats, shut down) and receive one JSON response per \
         line, in request order.  Answers are bit-identical to single-shot \
         $(b,csrl-check) runs; repeated queries hit the per-model memo \
         caches and the process-wide Fox-Glynn window cache.";
      `S "PROTOCOL";
      `P
        "Requests: {\"kind\": \"load\", \"model\": NAME[, \"file\": PATH]}, \
         {\"kind\": \"list\"}, {\"kind\": \"evict\", \"model\": NAME}, \
         {\"kind\": \"check\", \"model\": NAME, \"query\": CSRL[, \
         \"deadline_ms\": MS]}, {\"kind\": \"quantile\", \"model\": NAME, \
         \"query\": CSRL, \"variable\": \"t\"|\"r\", \"target\": P, \
         \"hi\": BOUND[, \"tolerance\": W][, \"deadline_ms\": MS]}, \
         {\"kind\": \"stats\"}, {\"kind\": \"shutdown\"}.  Every request \
         may carry an \"id\" string, echoed in its response.  A \"file\" \
         ending in .gcm loads a guarded-command program as a symbolic \
         model: checks run the sliding-window engine on demand and answer \
         with a certified interval, the interned state space and query \
         memo stay warm across checks (each load gets independent \
         caches), and quantile/frontier report unsupported." ]
  in
  Cmd.v
    (Cmd.info "csrl-serve" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ socket_arg $ tcp_arg $ executors_arg $ jobs_arg $ queue_arg
      $ deadline_arg $ engine_arg $ epsilon_arg $ preload_arg $ trace_arg
      $ stats_arg)

let () = exit (Cmd.eval cmd)
