let context ?(engine = Perf.Engine.default) ?epsilon ?pool ?telemetry
    (source : Models.Source.t) =
  match source with
  | Models.Source.Explicit { mrm; labeling; init } ->
    (Checker.make ~engine ?epsilon ?pool ?telemetry mrm labeling, init)
  | Models.Source.Interval { imrm; labeling; init } ->
    (Checker.make_robust ~engine ?epsilon ?pool ?telemetry imrm labeling, init)
  | Models.Source.Program { succ; epsilon = certified; _ } ->
    ( Checker.make_program ~epsilon:certified ?telemetry
        (Perf.Symbolic.create succ),
      Linalg.Vec.unit 1 0 )

let record_counters telemetry name (c : Numerics.Memo.counters) =
  Telemetry.add telemetry (Printf.sprintf "batch.%s.lookups" name)
    c.Numerics.Memo.lookups;
  Telemetry.add telemetry (Printf.sprintf "batch.%s.hits" name)
    c.Numerics.Memo.hits;
  Telemetry.add telemetry (Printf.sprintf "batch.%s.misses" name)
    c.Numerics.Memo.misses

let cache_counters memo ~fox_glynn_since =
  Checker.memo_counters memo
  @ [ ("fox_glynn",
       Numerics.Memo.diff (Numerics.Fox_glynn.cache_counters ())
         fox_glynn_since) ]

let counters_json (c : Numerics.Memo.counters) =
  Io.Json.Object
    [ ("lookups", Io.Json.Number (float_of_int c.Numerics.Memo.lookups));
      ("hits", Io.Json.Number (float_of_int c.Numerics.Memo.hits));
      ("misses", Io.Json.Number (float_of_int c.Numerics.Memo.misses));
      ("hit_rate", Io.Json.Number (Numerics.Memo.hit_rate c)) ]

let caches_json caches =
  Io.Json.Object (List.map (fun (name, c) -> (name, counters_json c)) caches)

let initial_value ~init verdict =
  let mass n keep =
    Linalg.Vec.dot init
      (Linalg.Vec.init n (fun s -> if keep s then 1.0 else 0.0))
  in
  match verdict with
  | Checker.Boolean mask ->
    let m = mass (Array.length mask) (fun s -> mask.(s)) in
    (m, m)
  | Checker.Numeric values ->
    let v = Linalg.Vec.dot init values in
    (v, v)
  | Checker.Three_valued tris ->
    let n = Array.length tris in
    ( mass n (fun s -> tris.(s) = Checker.Holds),
      mass n (fun s -> tris.(s) <> Checker.Fails) )
  | Checker.Interval env ->
    ( Linalg.Vec.dot init env.Robust.Envelope.lo,
      Linalg.Vec.dot init env.Robust.Envelope.hi )

let verdict_json ~init verdict =
  let lo, hi = initial_value ~init verdict in
  let states n f = Io.Json.List (List.init n f) in
  match verdict with
  | Checker.Boolean mask ->
    [ ("kind", Io.Json.String "boolean");
      ("initial_mass", Io.Json.Number lo);
      ("states", states (Array.length mask) (fun s -> Io.Json.Bool mask.(s)))
    ]
  | Checker.Numeric values ->
    [ ("kind", Io.Json.String "numeric");
      ("value", Io.Json.Number lo);
      ("states",
       states (Linalg.Vec.length values) (fun s -> Io.Json.Number values.{s}))
    ]
  | Checker.Three_valued tris ->
    [ ("kind", Io.Json.String "three-valued");
      ("initial_mass_lo", Io.Json.Number lo);
      ("initial_mass_hi", Io.Json.Number hi);
      ("states",
       states (Array.length tris) (fun s ->
           Io.Json.String (Checker.tri_to_string tris.(s)))) ]
  | Checker.Interval { Robust.Envelope.lo = lower; hi = upper } ->
    [ ("kind", Io.Json.String "interval");
      ("value_lo", Io.Json.Number lo);
      ("value_hi", Io.Json.Number hi);
      ("states",
       states (Linalg.Vec.length lower) (fun s ->
           Io.Json.List [ Io.Json.Number lower.{s}; Io.Json.Number upper.{s} ]))
    ]

let run ?(pool = Parallel.Pool.sequential) ?telemetry ?memo ctx queries =
  let memo = match memo with Some m -> m | None -> Checker.create_memo () in
  (* Per-query kernels run on the sequential pool: parallelism lives
     across queries, and the per-query numerics stay the exact
     single-query code path (the bit-identity invariant). *)
  let base = Checker.with_pool ctx Parallel.Pool.sequential in
  let fg_before = Numerics.Fox_glynn.cache_counters () in
  let queries = Array.of_list queries in
  let n = Array.length queries in
  let results = Array.make n None in
  let rollup = Mutex.create () in
  let eval i =
    let per_query =
      Option.map (fun t -> Telemetry.create ~clock:(Telemetry.clock t) ()) telemetry
    in
    let ctx_i = Checker.with_telemetry base per_query in
    let verdict = Checker.eval_query ~memo ctx_i queries.(i) in
    (match telemetry, per_query with
     | Some session, Some t ->
       (* Absorb under a lock: several domains may finish at once, and
          [absorb] must not interleave with another rollup. *)
       Mutex.protect rollup (fun () ->
           Telemetry.absorb session (Telemetry.report t))
     | _ -> ());
    results.(i) <- Some verdict
  in
  (* One query per chunk (cutoff 1): a batch is short, and whole-query
     granularity is what keeps each evaluation on the sequential path. *)
  Parallel.Pool.parallel_for ~cutoff:1 pool ~lo:0 ~hi:n (fun lo hi ->
      for i = lo to hi - 1 do
        eval i
      done);
  (match telemetry with
   | None -> ()
   | Some _ ->
     Telemetry.add telemetry "batch.queries" n;
     List.iter
       (fun (name, c) -> record_counters telemetry name c)
       (cache_counters memo ~fox_glynn_since:fg_before));
  Array.to_list
    (Array.map
       (function
         | Some v -> v
         | None -> failwith "Batch.run: a query produced no result")
       results)

module Frontier = struct
  type point = Perf.Frontier.point = {
    t : float;
    r : float;
    probability : float;
  }

  type result = {
    target : float;
    time_bound : float;
    reward_bound : float;
    grid : int;
    tolerance : float;
    points : point list;
    evaluations : int;
  }

  let bounds_json f =
    [ ("target", Io.Json.Number f.target);
      ("time_bound", Io.Json.Number f.time_bound);
      ("reward_bound", Io.Json.Number f.reward_bound);
      ("grid", Io.Json.Number (float_of_int f.grid));
      ("tolerance", Io.Json.Number f.tolerance) ]

  let points_json points =
    Io.Json.List
      (List.map
         (fun p ->
           Io.Json.Object
             [ ("t", Io.Json.Number p.t);
               ("r", Io.Json.Number p.r);
               ("probability", Io.Json.Number p.probability) ])
         points)

  let run ?telemetry ?memo ?(tolerance = 1e-6) ctx ~init query =
    match (query : Logic.Ast.query) with
    | Logic.Ast.Frontier_query
        { points = grid;
          target;
          path = Logic.Ast.Until (time, reward, phi, psi) } ->
      let upper what interval =
        match Numerics.Time_interval.upper interval with
        | Some b when Float.is_finite b && b > 0.0 -> b
        | _ ->
          invalid_arg
            (Printf.sprintf "Batch.Frontier.run: the %s bound must be a \
                             finite '[%s<=B]'" what
               (if what = "time" then "t" else "r"))
      in
      let time_bound = upper "time" time in
      let reward_bound = upper "reward" reward in
      Checker.require_precise ctx "frontier sweeps need";
      (* Every probe is an ordinary single-query solve on the caller's
         context with the shared memo, so each emitted point is
         bit-identical to what a cold solve of the same (t, r) returns —
         the caches only skip work whose result is a deterministic
         function of the key. *)
      let eval ~t ~r =
        let probe =
          Logic.Ast.Prob_query
            (Logic.Ast.Until
               (Numerics.Time_interval.upto t, Numerics.Time_interval.upto r, phi, psi))
        in
        match Checker.eval_query ?memo ctx probe with
        | Checker.Numeric values -> Linalg.Vec.dot init values
        | _ -> assert false
      in
      let sweep =
        Perf.Frontier.sweep ~eval ~target ~time_bound ~reward_bound
          ~points:grid ~tolerance
      in
      Telemetry.add telemetry "frontier.grid" grid;
      Telemetry.add telemetry "frontier.points"
        (List.length sweep.Perf.Frontier.points);
      Telemetry.add telemetry "frontier.evaluations"
        sweep.Perf.Frontier.evaluations;
      { target;
        time_bound;
        reward_bound;
        grid;
        tolerance;
        points = sweep.Perf.Frontier.points;
        evaluations = sweep.Perf.Frontier.evaluations }
    | _ -> invalid_arg "Batch.Frontier.run: not a frontier query"
end
