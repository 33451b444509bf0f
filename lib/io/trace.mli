(** Rendering {!Telemetry} reports: JSON trace documents (the
    [--trace FILE] of [csrl-check] and [csrl-serve]) and a
    human-readable counter dump (their [--stats]).

    The JSON shape is
    [{"counters": {name: int, ...}, "gauges": {name: float, ...},
      "spans": [{"name": ..., "start": ..., "seconds": ...}, ...]}]
    with counters and gauges sorted by name, spans in completion
    order. *)

val to_json : Telemetry.t -> Json.t
(** Snapshot the recorder as a JSON document (see above). *)

val record_pool_stats : Telemetry.t -> Parallel.Pool.t -> unit
(** Publish a pool's utilisation counters as gauges: [pool.size],
    [pool.parallel_runs], [pool.inline_runs], [pool.chunks] and — only
    when busy-time accounting was switched on with
    [Parallel.Pool.instrument] and measured something —
    [pool.busy_seconds].  Call it once, after the solves, before
    {!to_json}. *)

val print_stats : out_channel -> Telemetry.t -> unit
(** Print the counters and gauges (sorted by name) as an indented
    [telemetry:] block.  Spans are deliberately omitted — everything
    printed is a deterministic function of the computation, so the
    output is stable across runs and machines (the cram tests pin
    it). *)
