(** The serving daemon: a warm, long-running front-end over the
    {!Checker}/{!Perf.Engine} stack speaking the NDJSON {!Protocol} on
    stdio, a Unix-domain socket, or TCP.

    Serving semantics (DESIGN.md §14, §16):

    - {b Sharded executors, deterministic order.}  The service runs a
      pool of [executors] worker domains ({!Executor}).  Each session's
      reader thread admits a line into the session's own bounded queue
      of response slots ({!Admission}) and hands a request that names a
      model straight to the shard [fnv1a64 model mod executors] (a
      stable, explicit FNV-1a hash — see {!shard_of_name} — never the
      process-seeded [Hashtbl.hash]), so all requests on one model
      execute on one executor, in admission order, against that model's
      warm caches, and the model->shard mapping is identical across
      processes, compiler versions and restarts.  The executor fills the
      request's slot; the session's writer thread emits the slots
      strictly in admission order, waiting on the head — the wire
      transcript of a session is byte-identical at every executor
      count.
    - {b Global requests barrier.}  [list], [stats] and [shutdown] have
      no model to shard on; the writer runs them when their slot
      reaches the head, and the reader admits no later line until then,
      so their answers observe exactly the admission-order prefix before
      them.  Malformed lines get a slot the reader fills itself, keeping
      [parse_error]/[bad_request] replies in request order.
    - {b Admission control.}  When a session already has [queue_bound]
      unanswered requests, its reader replies [overloaded] immediately
      instead of blocking the transport (the one case where a response
      may overtake earlier requests' replies, and the one counter that
      is not deterministic across executor counts under concurrent
      sessions).  Sessions share only the registry and the shard
      queues, and an executor never waits on a session: one session's
      unread replies, pending [stats] or EOF holds up no request of
      another.
    - {b Deadlines.}  A request's budget (its ["deadline_ms"] or the
      server default) is counted from admission.  Expired on execution →
      immediate [deadline_exceeded]; otherwise a
      {!Numerics.Cancel.of_deadline} token rides the checking context
      and the kernels abandon the solve at their next checkpoint.  A
      cancelled solve raises before any memo store, so warm caches are
      never poisoned.
    - {b Isolation.}  Every per-request failure — malformed JSON, bad
      fields, unknown models, unsupported queries, kernel
      [Invalid_argument]s — becomes an error response; the daemon keeps
      serving and no executor is ever wedged (even an escaped exception
      is turned into an [internal] response, so no slot stays
      empty).
    - {b Graceful shutdown.}  A [shutdown] request drains everything
      admitted before it, is acknowledged in order, and lines read after
      it are answered [shutting_down]; the listeners then stop
      accepting. *)

type config = {
  engine : Perf.Engine.spec;
      (** checks every model, and decides what a loaded [.gcm] program
          becomes ({!Models.Source.resolve}): a program context under
          [Windowed], certified at its epsilon, the materialised twin
          otherwise *)
  epsilon : float;
  pool : Parallel.Pool.t;
  queue_bound : int;
      (** [>= 1]: the unanswered requests one session may have (excess
          lines are answered [overloaded]) and each shard queue's
          capacity *)
  executors : int;
      (** worker domains, [>= 1]; [1] reproduces the single-FIFO
          executor bit-for-bit *)
  default_deadline_ms : float option;  (** [None]: no default budget *)
  telemetry : Telemetry.t option;
      (** per-request spans and serving counters for [--trace] *)
  clock : unit -> float;
      (** seconds; monotonic preferred (deadlines, queue-wait gauges) *)
}

val default_config : ?clock:(unit -> float) -> unit -> config
(** Occupation-time engine at [epsilon = 1e-9], sequential pool, queue
    bound [64], one executor, no default deadline, no telemetry,
    [Unix.gettimeofday] (override with a monotonic clock). *)

type t

val create : config -> t
(** Raises [Invalid_argument] when [executors < 1] or
    [queue_bound < 1].  Worker domains are spawned lazily by the first
    session, so a service used only through {!execute} costs no
    threads. *)

val registry : t -> Registry.t

val preload : t -> string list -> (unit, string) result
(** Load the named built-in models before serving; the first failure
    aborts with its message. *)

val execute : t -> ?admitted:float -> Protocol.envelope -> Io.Json.t
(** Evaluate one request synchronously against the warm state,
    returning the response object — the executors' own entry point,
    exposed for the differential tests and the bench harness.
    [admitted] (default: now) is the deadline anchor. *)

val fnv1a64 : string -> int64
(** The 64-bit FNV-1a hash (offset basis [0xcbf29ce484222325], prime
    [0x100000001b3]) of the bytes of the string — the stable hash behind
    the model->shard mapping. *)

val shard_of_name : executors:int -> string -> int
(** [fnv1a64 name] reduced by {e unsigned} remainder to
    [0 .. executors - 1].  Stable across processes and versions; pinned
    by the test suite.  Raises [Invalid_argument] when
    [executors < 1]. *)

type outcome = Shutdown | Eof

val serve_channels : t -> input:in_channel -> output:out_channel -> outcome
(** Run one session: a reader thread admitting lines into the session's
    slot queue and handing model requests to their shards, and a writer
    thread emitting the slots in order, as described above.  Returns
    when [input] is exhausted ([Eof]) or a [shutdown] request was served
    ([Shutdown]); either way every admitted request has been answered
    and both threads joined.  Blank
    lines are ignored.  [output] is flushed after every response.
    Concurrent sessions on one service are safe and share the executor
    pool and registry. *)

val serve_stdio : t -> outcome

(** {1 Listeners} *)

type listener
(** A bound, listening socket plus its cleanup action. *)

val unix_listener : path:string -> (listener, string) result
(** Bind a Unix-domain socket at [path], replacing a stale socket file;
    the cleanup unlinks it. *)

val tcp_listener : host:string -> port:int -> (listener * int, string) result
(** Bind and listen on [host:port] ([SO_REUSEADDR]; [host] is a dotted
    address or a name to resolve).  Returns the bound port — useful with
    [port = 0] for an ephemeral port. *)

val serve_listeners : t -> listener list -> unit
(** Accept loop over any number of listeners, serving each connection in
    its own session thread — connections are concurrent; the registry
    and its warm caches persist across and between them.  A client's
    [shutdown] request stops every accept loop within 100 ms of its
    reply, even while that client keeps its socket open; every listener
    is then closed and cleaned up, so new connections are refused.
    Returns once the live sessions have drained (each ends at its
    client's EOF; the one that sent [shutdown] refuses later
    requests).  Live sessions are counted, not kept: a finished
    session's thread is released at once, so memory does not grow with
    the number of connections served. *)

val serve_socket : t -> path:string -> unit
(** [serve_listeners] over a single Unix-domain listener at [path];
    raises [Failure] when binding fails. *)

val stop : t -> unit
(** Stop the executor domains, joining them.  Idempotent; a no-op when
    no session ever started them.  Call after the last session (e.g.
    once {!serve_listeners} returns) — outstanding sessions must be
    drained first. *)
