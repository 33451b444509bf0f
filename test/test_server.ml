(* Tests for the serving subsystem: the NDJSON protocol (round-trip and
   fuzz), the bounded admission queue, quantile bisection, and the
   Service itself — differential bit-identity against a plain
   [Checker.eval_query], deadline expiry mid-Sericola with unpoisoned
   caches, eviction under an in-flight request, a full pipe session
   exercising ordering, isolation and graceful shutdown, and concurrent
   sessions that must not wait on each other. *)

module Protocol = Server.Protocol
module Service = Server.Service

let adhoc () = Option.get (Models.Builtin.load "adhoc")

let json_str = Io.Json.to_string

let member path json =
  List.fold_left
    (fun acc key -> Option.bind acc (Io.Json.member key))
    (Some json) path

let expect_string path json =
  match Option.bind (member path json) Io.Json.to_text with
  | Some s -> s
  | None ->
    Alcotest.failf "response %s has no string at %s" (json_str json)
      (String.concat "." path)

let check_env model query deadline_ms =
  { Protocol.id = None;
    request = Protocol.Check { model; query; deadline_ms } }

let fresh_service ?(config = Service.default_config ()) () =
  let service = Service.create config in
  (match Service.preload service [ "adhoc" ] with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  service

(* ------------------------------------------------------------------ *)
(* Protocol.                                                           *)

let gen_envelope =
  let open QCheck2.Gen in
  let name = oneofl [ "adhoc"; "station"; "m"; "weird name \"x\"" ] in
  let query =
    oneofl
      [ "P=? ( F[t<=2] doze )";
        "P>=0.5 ( a U[t<=1][r<=2] b )";
        "nonsense that never parses" ]
  in
  let deadline = oneofl [ None; Some 1.0; Some 250.5; Some 60000.0 ] in
  let request =
    oneof
      [ map2
          (fun model source ->
            (* file and builtin are mutually exclusive on the wire, so
               the generator never produces both. *)
            match source with
            | `File f ->
              Protocol.Load
                { model; file = Some f; builtin = None; drift = None;
                  imrm = None }
            | `Builtin b ->
              Protocol.Load
                { model; file = None; builtin = Some b; drift = None;
                  imrm = None }
            | `Plain ->
              Protocol.Load
                { model; file = None; builtin = None; drift = None;
                  imrm = None }
            | `Drift d ->
              Protocol.Load
                { model; file = None; builtin = None; drift = Some d;
                  imrm = None }
            | `Imrm path ->
              Protocol.Load
                { model; file = None; builtin = None; drift = None;
                  imrm = Some path })
          name
          (oneofl
             [ `Plain; `File "station.mrm"; `Builtin "adhoc-srn";
               `Drift 10.0; `Imrm "station.imrm.json" ]);
        map (fun model -> Protocol.Evict { model }) name;
        return Protocol.List_models;
        map3
          (fun model query deadline_ms ->
            Protocol.Check { model; query; deadline_ms })
          name query deadline;
        (let* model = name and* query = query and* deadline_ms = deadline in
         let* variable = oneofl [ Protocol.Time; Protocol.Reward ]
         and* target = float_bound_inclusive 1.0
         and* hi = oneofl [ 0.5; 24.0; 1e6 ]
         and* tolerance = oneofl [ 1e-9; 1e-6; 0.125 ] in
         return
           (Protocol.Quantile
              { model; query; variable; target; hi; tolerance; deadline_ms }));
        (let* model = name and* query = query and* deadline_ms = deadline in
         let* tolerance = oneofl [ 1e-9; 1e-6; 0.125 ] in
         return (Protocol.Frontier { model; query; tolerance; deadline_ms }));
        return Protocol.Stats;
        return Protocol.Shutdown ]
  in
  let* id = oneofl [ None; Some "req-1"; Some ""; Some "\"quoted\"\n" ]
  and* request = request in
  return { Protocol.id; request }

let protocol_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"protocol: of_json (to_json e) = Ok e"
    gen_envelope (fun env ->
      match Protocol.of_json (Protocol.to_json env) with
      | Ok env' -> Protocol.equal_envelope env env'
      | Error e -> QCheck2.Test.fail_reportf "rejected: %s" e.Protocol.message)

(* The wire round-trip additionally crosses the JSON printer/parser —
   string escaping, float formatting. *)
let protocol_wire_roundtrip =
  QCheck2.Test.make ~count:500
    ~name:"protocol: of_line (to_string (to_json e)) = Ok e" gen_envelope
    (fun env ->
      match Protocol.of_line (json_str (Protocol.to_json env)) with
      | Ok env' -> Protocol.equal_envelope env env'
      | Error e -> QCheck2.Test.fail_reportf "rejected: %s" e.Protocol.message)

let protocol_fuzz =
  QCheck2.Test.make ~count:1000 ~name:"protocol: of_line never raises"
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 60))
    (fun line ->
      match Protocol.of_line line with
      | Ok _ | Error _ -> true)

(* Every proper prefix of a valid line (a truncated NDJSON write) must
   come back as a structured parse error, never an exception. *)
let truncated_line () =
  let full =
    {|{"kind": "check", "model": "adhoc", "query": "P=? ( F[t<=2] doze )"}|}
  in
  for len = 0 to String.length full - 1 do
    match Protocol.of_line (String.sub full 0 len) with
    | Error { Protocol.code = "parse_error"; _ } -> ()
    | Error { Protocol.code; _ } ->
      Alcotest.failf "prefix %d: unexpected code %s" len code
    | Ok _ -> Alcotest.failf "prefix %d parsed" len
  done

let bad_requests () =
  let cases =
    [ ({|{"kind": "frobnicate"}|}, "bad_request");
      ({|{"kind": "check", "model": "adhoc"}|}, "bad_request");
      ({|{"kind": "check", "model": 3, "query": "x"}|}, "bad_request");
      ({|{"kind": "quantile", "model": "m", "query": "q", "variable": "z",
         "target": 0.5, "hi": 1}|}, "bad_request");
      ({|{"kind": "quantile", "model": "m", "query": "q", "variable": "t",
         "target": 1.5, "hi": 1}|}, "bad_request");
      ({|{"kind": "check", "model": "m", "query": "q", "deadline_ms": -1}|},
       "bad_request");
      ({|{"kind": "frontier", "query": "frontier P>=0.5 ( a U[t<=1][r<=1] b )"}|},
       "bad_request");
      ({|{"kind": "frontier", "model": "m", "query": "q", "tolerance": 0}|},
       "bad_request");
      ({|[1, 2]|}, "bad_request");
      ({|{"kind": "check"|}, "parse_error") ]
  in
  List.iter
    (fun (line, expected) ->
      match Protocol.of_line line with
      | Error { Protocol.code; _ } ->
        Alcotest.(check string) line expected code
      | Ok _ -> Alcotest.failf "accepted %s" line)
    cases;
  (* The id is echoed in rejections when it was readable. *)
  match Protocol.of_line {|{"kind": "frobnicate", "id": "x7"}|} with
  | Error { Protocol.error_id = Some "x7"; _ } -> ()
  | _ -> Alcotest.fail "bad_request lost the request id"

(* ------------------------------------------------------------------ *)
(* Admission queue.                                                    *)

let admission_bound () =
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Admission.create: bound must be >= 1") (fun () ->
      ignore (Server.Admission.create ~bound:0));
  let q = Server.Admission.create ~bound:2 in
  Alcotest.(check bool) "push 1" true (Server.Admission.try_push q 1);
  Alcotest.(check bool) "push 2" true (Server.Admission.try_push q 2);
  Alcotest.(check bool) "push 3 refused" false (Server.Admission.try_push q 3);
  (* Control markers ignore the bound and keep FIFO order. *)
  Server.Admission.push_control q 99;
  Alcotest.(check int) "length" 3 (Server.Admission.length q);
  (* Bind the pops in sequence: list elements evaluate right-to-left. *)
  let first = Server.Admission.pop q in
  let second = Server.Admission.pop q in
  let third = Server.Admission.pop q in
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 99 ] [ first; second; third ];
  Alcotest.(check bool) "drained, admits again" true
    (Server.Admission.try_push q 4)

(* The quantile request against the service agrees with inverting the
   checker by hand: eval at the returned bound reaches the target, and
   just below it falls short. *)
let quantile_request () =
  let service = fresh_service () in
  let response =
    Service.execute service
      { Protocol.id = None;
        request =
          Protocol.Quantile
            { model = "adhoc";
              query = "P=? ( true U[t<=1] doze )";
              variable = Protocol.Time;
              target = 0.5;
              hi = 100.0;
              tolerance = 1e-6;
              deadline_ms = None } }
  in
  let value =
    match Option.bind (member [ "value" ] response) Io.Json.to_float with
    | Some v -> v
    | None -> Alcotest.failf "no quantile value in %s" (json_str response)
  in
  let mrm, labeling, init = adhoc () in
  let ctx = Checker.make mrm labeling in
  let eval t =
    let q = Printf.sprintf "P=? ( true U[t<=%.17g] doze )" t in
    match Checker.eval_query ctx (Logic.Parser.query q) with
    | Checker.Numeric v -> Linalg.Vec.dot init v
    | _ -> Alcotest.fail "boolean verdict"
  in
  Alcotest.(check bool) "target reached at the bound" true
    (eval value >= 0.5);
  Alcotest.(check bool) "bound is tight" true
    (eval (value -. 1e-5) < 0.5)

(* A served frontier request is the same sweep Batch.Frontier runs: each
   emitted staircase point must be bit-identical to a hand Checker
   solve of its exact (t, r) bounds on a fresh context. *)
let frontier_request () =
  let service = fresh_service () in
  let response =
    Service.execute service
      { Protocol.id = None;
        request =
          Protocol.Frontier
            { model = "adhoc";
              query =
                "frontier[5] P>=0.3 ( (call_idle | doze) U[t<=6][r<=600] \
                 call_initiated )";
              tolerance = 1e-6;
              deadline_ms = None } }
  in
  let points =
    match member [ "points" ] response with
    | Some (Io.Json.List points) -> points
    | _ -> Alcotest.failf "no points list in %s" (json_str response)
  in
  if points = [] then Alcotest.failf "empty staircase: %s" (json_str response);
  let mrm, labeling, init = adhoc () in
  List.iter
    (fun point ->
      let field key =
        match Option.bind (member [ key ] point) Io.Json.to_float with
        | Some v -> v
        | None -> Alcotest.failf "point missing %S in %s" key (json_str point)
      in
      let t = field "t" and r = field "r" and p = field "probability" in
      Numerics.Fox_glynn.cache_clear ();
      let ctx = Checker.make mrm labeling in
      let q =
        Printf.sprintf
          "P=? ( (call_idle | doze) U[t<=%.17g][r<=%.17g] call_initiated )" t r
      in
      let cold =
        match Checker.eval_query ctx (Logic.Parser.query q) with
        | Checker.Numeric v -> Linalg.Vec.dot init v
        | _ -> Alcotest.fail "boolean verdict"
      in
      if Int64.bits_of_float p <> Int64.bits_of_float cold then
        Alcotest.failf "point (t=%.17g, r=%.17g): served %.17g != cold %.17g"
          t r p cold)
    points;
  (* A non-frontier query behind the frontier kind is a bad request. *)
  match
    Service.execute service
      { Protocol.id = Some "f2";
        request =
          Protocol.Frontier
            { model = "adhoc"; query = "P=? ( F[t<=2] doze )";
              tolerance = 1e-6; deadline_ms = None } }
  with
  | Io.Json.Object fields
    when List.assoc_opt "error" fields = Some (Io.Json.String "bad_request") ->
    ()
  | other -> Alcotest.failf "expected bad_request, got %s" (json_str other)

(* ------------------------------------------------------------------ *)
(* Service semantics.                                                  *)

(* serve.t's chain program. *)
let chain_gcm =
  {|module chain
  x : [0..3] init 0;
  [] x < 3 -> 1.0 : (x'=x+1);
endmodule
label "full" = x=3;
|}

(* The differential claim: a served check answers bit-identically to a
   cold Checker.eval_query on a fresh context of the same kind — a
   point model, an interval model, and a .gcm program on a windowed
   service — and a second round on the now-warm service answers from
   the memo with the same bytes.  The program's queries include two
   pairs whose bounds print alike at six digits, each answered as in a
   fresh session. *)
let differential_check () =
  let mrm, labeling, init = adhoc () in
  let chain_path = Filename.temp_file "chain" ".gcm" in
  Out_channel.with_open_text chain_path (fun oc ->
      output_string oc chain_gcm);
  let program () =
    match Lang.Gcm.of_string chain_gcm with
    | Ok succ ->
      (Checker.make_program (Perf.Symbolic.create succ), Linalg.Vec.unit 1 0)
    | Error message -> Alcotest.fail message
  in
  let cases =
    [ ( "adhoc", None, Service.default_config (),
        (fun () -> (Checker.make mrm labeling, init)),
        [ "P=? ( F[t<=2] doze )";
          "P=? ( (call_idle | doze) U[t<=24][r<=600] call_initiated )";
          "P>=0.5 ( (call_idle | doze) U[t<=24][r<=600] call_initiated )";
          "S=? ( doze )" ] );
      ( "adhoc-drift:5", None, Service.default_config (),
        (fun () ->
          ( Checker.make_robust
              (Robust.Imrm.of_mrm ~rate_drift:0.05 mrm)
              labeling,
            init )),
        [ "P=? ( F[t<=2] doze )"; "P>=0.4 ( F[t<=1] doze )";
          "doze | call_idle" ] );
      ( "chain", Some chain_path,
        { (Service.default_config ()) with
          engine = Perf.Engine.Windowed { epsilon = 1e-9 } },
        program,
        [ "P=? ( true U[t<=1.0000001] full )";
          "P=? ( true U[t<=1.0000004] full )";
          "P>=0.08030136 ( true U[t<=1] full )";
          "P>=0.0803014 ( true U[t<=1] full )";
          "P>=0.08030139704 ( true U[t<=1] full )"; "!full" ] ) ]
  in
  let differential (model, file, config, fresh, queries) =
    let service = Service.create config in
    let load =
      Protocol.Load { model; file; builtin = None; drift = None; imrm = None }
    in
    ignore (Service.execute service { Protocol.id = None; request = load });
    let reference text =
      let ctx, init = fresh () in
      Batch.verdict_json ~init (Checker.eval_query ctx (Logic.Parser.query text))
    in
    let round name =
      List.iter
        (fun text ->
          let response = Service.execute service (check_env model text None) in
          let result =
            match member [ "result" ] response with
            | Some r -> r
            | None -> Alcotest.failf "no result in %s" (json_str response)
          in
          (* String equality of the rendered JSON is bit-identity: Io.Json
             prints floats with round-trip precision. *)
          Alcotest.(check string)
            (Printf.sprintf "%s %s: %s" model name text)
            (json_str (Io.Json.Object (reference text)))
            (json_str result))
        queries
    in
    let path_counter key =
      let stats =
        Service.execute service { Protocol.id = None; request = Protocol.Stats }
      in
      match
        Option.bind (member [ "models" ] stats) (function
          | Io.Json.List [ model ] ->
            Option.bind (member [ "cache"; "path"; key ] model) Io.Json.to_float
          | _ -> None)
      with
      | Some v -> int_of_float v
      | None -> Alcotest.failf "no path %s in %s" key (json_str stats)
    in
    round "round 1";
    let lookups = path_counter "lookups" and hits = path_counter "hits" in
    round "round 2";
    let lookups = path_counter "lookups" - lookups
    and hits = path_counter "hits" - hits in
    Alcotest.(check bool) (model ^ ": round 2 looks paths up") true
      (lookups > 0);
    Alcotest.(check int) (model ^ ": every round-2 path lookup hits") lookups
      hits
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove chain_path)
    (fun () -> List.iter differential cases)

(* A deadline that fires mid-Sericola: the solve is abandoned with a
   structured error, and the interrupted run leaves no partial result
   behind — the same request re-run without a deadline matches a fresh
   service exactly. *)
let deadline_mid_sericola () =
  (* Every clock read advances time 1 ms, so a 50 ms budget expires
     after 50 cancellation polls — deep inside Sericola's layer
     recursion for this query — deterministically, with no real
     sleeping. *)
  let calls = ref 0 in
  let clock () =
    incr calls;
    float_of_int !calls *. 0.001
  in
  let service = Service.create (Service.default_config ~clock ()) in
  (match Service.preload service [ "adhoc" ] with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  let query = "P=? ( (call_idle | doze) U[t<=24][r<=600] call_initiated )" in
  let response =
    Service.execute service (check_env "adhoc" query (Some 50.0))
  in
  Alcotest.(check string) "deadline error" "deadline_exceeded"
    (expect_string [ "error" ] response);
  (* Same request, no deadline: the caches were not poisoned by the
     cancelled solve, so the answer matches a never-cancelled service. *)
  let retry = Service.execute service (check_env "adhoc" query None) in
  let fresh = Service.execute (fresh_service ()) (check_env "adhoc" query None) in
  Alcotest.(check string) "cache not poisoned"
    (json_str fresh) (json_str retry);
  (* A deadline that was already expired on admission short-circuits
     without touching the kernels. *)
  let kernels_before = !calls in
  let expired =
    Service.execute service ~admitted:0.0 (check_env "adhoc" query (Some 1.0))
  in
  Alcotest.(check string) "expired in queue" "deadline_exceeded"
    (expect_string [ "error" ] expired);
  Alcotest.(check bool) "short-circuited" true (!calls - kernels_before < 10)

(* Evicting a model does not disturb work that already resolved its
   registry entry (the executor resolves at execution start); later
   requests see unknown_model. *)
let evict_in_flight () =
  let service = fresh_service () in
  let reg = Service.registry service in
  let entry =
    match Server.Registry.find reg "adhoc" with
    | Some e -> e
    | None -> Alcotest.fail "preloaded model missing"
  in
  let query = Logic.Parser.query "P=? ( F[t<=2] doze )" in
  let { Server.Registry.ctx; memo; _ } = entry in
  let before = Checker.eval_query ~memo ctx query in
  Alcotest.(check bool) "evict" true (Server.Registry.evict reg "adhoc");
  (* The resolved entry keeps working after eviction — in-flight
     requests finish on the state they resolved. *)
  let after = Checker.eval_query ~memo ctx query in
  Alcotest.(check bool) "in-flight solve unaffected" true (before = after);
  Alcotest.(check bool) "gone from the registry" true
    (Server.Registry.find reg "adhoc" = None);
  let response =
    Service.execute service (check_env "adhoc" "P=? ( F[t<=2] doze )" None)
  in
  Alcotest.(check string) "later requests rejected" "unknown_model"
    (expect_string [ "error" ] response)

(* ------------------------------------------------------------------ *)
(* A full session over OS pipes: ordering, isolation, shutdown.        *)

let pipe_session () =
  let session =
    [ {|{"kind": "load", "model": "adhoc"}|};
      {|{"kind": "check", "model": "adhoc", "query": "P=? ( F[t<=2] doze )", "id": "c1"}|};
      {|{"kind": "check", "model": "adhoc"|};  (* truncated line *)
      {|{"kind": "frobnicate", "id": "c2"}|};
      "";  (* blank lines are ignored *)
      {|{"kind": "evict", "model": "nope", "id": "c3"}|};
      {|{"kind": "shutdown"}|};
      {|{"kind": "list", "id": "late"}|} ]
  in
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  let writer = Unix.out_channel_of_descr in_w in
  List.iter
    (fun line ->
      output_string writer line;
      output_char writer '\n')
    session;
  close_out writer;
  let service = Service.create (Service.default_config ()) in
  let input = Unix.in_channel_of_descr in_r in
  let output = Unix.out_channel_of_descr out_w in
  let outcome = Service.serve_channels service ~input ~output in
  close_out output;
  close_in input;
  Alcotest.(check bool) "shutdown outcome" true (outcome = Service.Shutdown);
  let reader = Unix.in_channel_of_descr out_r in
  let responses = ref [] in
  (try
     while true do
       responses := input_line reader :: !responses
     done
   with End_of_file -> ());
  close_in reader;
  let responses = List.rev !responses in
  Alcotest.(check int) "one response per non-blank line" 7
    (List.length responses);
  let codes =
    List.map
      (fun line ->
        let json = Io.Json.of_string line in
        match member [ "kind" ] json with
        | Some (Io.Json.String kind) -> kind
        | _ -> expect_string [ "error" ] json)
      responses
  in
  Alcotest.(check (list string)) "response order"
    [ "load"; "check"; "parse_error"; "bad_request"; "unknown_model";
      "shutdown"; "shutting_down" ]
    codes;
  (* ids survive the queue, in order. *)
  let id_of line = member [ "id" ] (Io.Json.of_string line) in
  Alcotest.(check bool) "check id echoed" true
    (id_of (List.nth responses 1) = Some (Io.Json.String "c1"));
  Alcotest.(check bool) "post-shutdown id echoed" true
    (id_of (List.nth responses 6) = Some (Io.Json.String "late"));
  Service.stop service

(* ------------------------------------------------------------------ *)
(* Admission under concurrent producers.                               *)

(* Racing try_push against a full queue: the bound is exact — with no
   consumer, exactly [bound] of the racing pushes succeed, and a
   control marker still gets through. *)
let admission_racing_bound () =
  let q = Server.Admission.create ~bound:16 in
  let successes = Atomic.make 0 in
  let producers =
    List.init 4 (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to 49 do
              if Server.Admission.try_push q ((p * 50) + i) then
                ignore (Atomic.fetch_and_add successes 1)
            done)
          ())
  in
  List.iter Thread.join producers;
  Alcotest.(check int) "exactly bound pushes admitted" 16
    (Atomic.get successes);
  Alcotest.(check int) "length at bound" 16 (Server.Admission.length q);
  Server.Admission.push_control q (-1);
  Alcotest.(check int) "control marker exempt from the bound" 17
    (Server.Admission.length q)

(* Multiple producers using the blocking push against one consumer:
   everything arrives exactly once and each producer's items stay in
   that producer's order (per-producer FIFO). *)
let admission_concurrent_producers () =
  let q = Server.Admission.create ~bound:8 in
  let producers_n = 4 and per_producer = 100 in
  let producers =
    List.init producers_n (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to per_producer - 1 do
              Server.Admission.push_wait q (p, i)
            done)
          ())
  in
  let seen = Array.make producers_n [] in
  for _ = 1 to producers_n * per_producer do
    let p, i = Server.Admission.pop q in
    seen.(p) <- i :: seen.(p)
  done;
  List.iter Thread.join producers;
  Array.iteri
    (fun p items ->
      Alcotest.(check (list int))
        (Printf.sprintf "producer %d FIFO" p)
        (List.init per_producer Fun.id)
        (List.rev items))
    seen;
  Alcotest.(check int) "drained" 0 (Server.Admission.length q)

(* ------------------------------------------------------------------ *)
(* Multi-executor stress: one randomized mixed-model session must     *)
(* produce a byte-identical transcript at every executor count.       *)

(* Run [lines] through a fresh service at [executors], returning the
   response transcript.  Mirrors a real session: all requests written
   up front, responses drained to EOF. *)
let run_session ~executors ~queue_bound lines =
  let config =
    { (Service.default_config ()) with
      Service.executors; queue_bound }
  in
  let service = Service.create config in
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  let input = Unix.in_channel_of_descr in_r in
  let output = Unix.out_channel_of_descr out_w in
  let server =
    Thread.create
      (fun () ->
        ignore (Service.serve_channels service ~input ~output);
        close_out_noerr output;
        close_in_noerr input)
      ()
  in
  let writer = Unix.out_channel_of_descr in_w in
  List.iter
    (fun line ->
      output_string writer line;
      output_char writer '\n')
    lines;
  close_out writer;
  let reader = Unix.in_channel_of_descr out_r in
  let responses = ref [] in
  (try
     while true do
       responses := input_line reader :: !responses
     done
   with End_of_file -> ());
  close_in reader;
  Thread.join server;
  Service.stop service;
  List.rev !responses

let stress_session () =
  (* 8 alias models over the two 9-state builtins so the shard hash has
     something to spread, then 200 requests mixing real checks, reloads,
     evictions, malformed queries and unknown models, driven by a fixed
     LCG so the session is reproducible. *)
  let models =
    Array.init 8 (fun i ->
        ( Printf.sprintf "m%d" i,
          if i mod 2 = 0 then "adhoc" else "adhoc-srn" ))
  in
  let preload =
    Array.to_list models
    |> List.map (fun (name, builtin) ->
           Printf.sprintf {|{"kind": "load", "model": "%s", "builtin": "%s"}|}
             name builtin)
  in
  let seed = ref 20020623 in
  let rand () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed
  in
  let lines = ref [] in
  let n = ref 0 in
  while !n < 200 do
    let r = rand () in
    let model, builtin = models.(r mod 8) in
    let id = Printf.sprintf "r%03d" !n in
    let line =
      match r mod 20 with
      | 0 ->
        (* Reload: replaces the entry with fresh warm caches. *)
        Printf.sprintf
          {|{"kind": "load", "id": "%s", "model": "%s", "builtin": "%s"}|} id
          model builtin
      | 1 ->
        (* Evict: later checks on this model answer unknown_model until
           a reload comes along — deterministic, since eviction and the
           checks ride the same per-model FIFO. *)
        Printf.sprintf {|{"kind": "evict", "id": "%s", "model": "%s"}|} id
          model
      | 2 ->
        Printf.sprintf
          {|{"kind": "check", "id": "%s", "model": "%s", "query": "P=? ( F[t<="}|}
          id model
      | 3 ->
        Printf.sprintf
          {|{"kind": "check", "id": "%s", "model": "nope", "query": "P=? ( F[t<=1] doze )"}|}
          id
      | 4 -> Printf.sprintf {|{"kind": "list", "id": "%s"}|} id
      | _ ->
        let bound = 0.5 +. (0.017 *. float_of_int !n) in
        Printf.sprintf
          {|{"kind": "check", "id": "%s", "model": "%s", "query": "P=? ( F[t<=%g] doze )"}|}
          id model bound
    in
    lines := line :: !lines;
    incr n
  done;
  let lines = preload @ List.rev !lines in
  let reference = run_session ~executors:1 ~queue_bound:512 lines in
  Alcotest.(check int) "one response per request" (List.length lines)
    (List.length reference);
  (* Responses leave in admission order: response i echoes request i's
     id. *)
  List.iteri
    (fun i response ->
      if i >= List.length preload then
        let expected = Printf.sprintf "r%03d" (i - List.length preload) in
        match member [ "id" ] (Io.Json.of_string response) with
        | Some (Io.Json.String id) ->
          Alcotest.(check string) "admission order" expected id
        | _ -> Alcotest.failf "response %d has no id: %s" i response)
    reference;
  List.iter
    (fun executors ->
      let transcript = run_session ~executors ~queue_bound:512 lines in
      Alcotest.(check (list string))
        (Printf.sprintf "byte-identical at %d executors" executors)
        reference transcript)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Sessions do not wait on each other: a request with no model, an EOF  *)
(* or an unread output stalls only its own session, and a full session  *)
(* sheds its excess lines at once.                                      *)

(* A session over OS pipes served by its own thread.  Replies are read
   from the raw descriptor so a read can give up at a deadline. *)
type client = {
  requests : out_channel;
  replies : Unix.file_descr;
  pending : Buffer.t;  (* bytes read past the last whole reply *)
  session : Thread.t;
}

let open_client service =
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  let input = Unix.in_channel_of_descr in_r
  and output = Unix.out_channel_of_descr out_w in
  let session =
    Thread.create
      (fun () ->
        ignore (Service.serve_channels service ~input ~output);
        close_out_noerr output;
        close_in_noerr input)
      ()
  in
  { requests = Unix.out_channel_of_descr in_w; replies = out_r;
    pending = Buffer.create 1024; session }

let send_lines c lines =
  List.iter
    (fun line ->
      output_string c.requests line;
      output_char c.requests '\n')
    lines;
  flush c.requests

(* The next [n] replies, or those that arrive within [seconds] or before
   the session closes its output. *)
let replies_within seconds c n =
  let deadline = Unix.gettimeofday () +. seconds in
  let chunk = Bytes.create 4096 in
  let rec take count acc =
    let text = Buffer.contents c.pending in
    match String.index_opt text '\n' with
    | _ when count = n -> List.rev acc
    | Some i ->
      Buffer.clear c.pending;
      Buffer.add_string c.pending
        (String.sub text (i + 1) (String.length text - i - 1));
      take (count + 1) (String.sub text 0 i :: acc)
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then List.rev acc
      else begin
        match Unix.select [ c.replies ] [] [] left with
        | [], _, _ -> List.rev acc
        | _ ->
          let read = Unix.read c.replies chunk 0 (Bytes.length chunk) in
          if read = 0 then List.rev acc
          else begin
            Buffer.add_subbytes c.pending chunk 0 read;
            take count acc
          end
      end
  in
  take 0 []

(* Ends the session: EOF on its input, its remaining replies read, its
   thread joined. *)
let close_client c =
  close_out_noerr c.requests;
  ignore (replies_within 30.0 c max_int);
  Thread.join c.session;
  Unix.close c.replies

(* The first name "<prefix>N" that lands on [shard] at [executors]. *)
let name_on_shard ~executors ~shard prefix =
  let rec pick k =
    let name = Printf.sprintf "%s%d" prefix k in
    if Service.shard_of_name ~executors name = shard then name
    else pick (k + 1)
  in
  pick 0

let held_entry service model =
  match Server.Registry.find (Service.registry service) model with
  | Some entry -> entry
  | None -> Alcotest.failf "model %s is not loaded" model

let reply_kinds lines =
  List.map
    (fun line ->
      let json = Io.Json.of_string line in
      match member [ "kind" ] json with
      | Some (Io.Json.String kind) -> kind
      | _ -> expect_string [ "error" ] json)
    lines

let check_line ?id model =
  Printf.sprintf
    {|{"kind": "check", %s"model": "%s", "query": "P=? ( F[t<=2] doze )"}|}
    (match id with None -> "" | Some id -> Printf.sprintf {|"id": "%s", |} id)
    model

(* Session A's check is held on its model's entry lock; A then sends
   [stats] (which waits for that check) or closes its input.  Session
   B's load and check on a model of the other shard must still be
   answered while A's entry is held.  The short delay only lets A's
   lines be admitted before B's; the pass does not depend on it. *)
let barrier_does_not_stall () =
  List.iter
    (fun a_ends ->
      let service =
        fresh_service
          ~config:{ (Service.default_config ()) with Service.executors = 2 } ()
      in
      let other =
        name_on_shard ~executors:2
          ~shard:(1 - Service.shard_of_name ~executors:2 "adhoc") "b"
      in
      let a = open_client service and b = open_client service in
      let answered =
        Server.Registry.exclusively (held_entry service "adhoc") (fun () ->
            send_lines a [ check_line "adhoc" ];
            (match a_ends with
             | `Stats -> send_lines a [ {|{"kind": "stats"}|} ]
             | `Eof -> close_out a.requests);
            Thread.delay 0.1;
            send_lines b
              [ Printf.sprintf
                  {|{"kind": "load", "model": "%s", "builtin": "adhoc"}|} other;
                check_line other ];
            replies_within 5.0 b 2)
      in
      let a_replies = replies_within 5.0 a 2 in
      close_client a;
      close_client b;
      Service.stop service;
      let case = match a_ends with `Stats -> "stats" | `Eof -> "EOF" in
      Alcotest.(check (list string))
        (Printf.sprintf "B answered while A's %s waits" case)
        [ "load"; "check" ] (reply_kinds answered);
      Alcotest.(check (list string))
        (Printf.sprintf "A answered after release (%s)" case)
        (match a_ends with `Stats -> [ "check"; "stats" ] | `Eof -> [ "check" ])
        (reply_kinds a_replies))
    [ `Stats; `Eof ]

(* Session A floods cheap checks into an output pipe nobody reads, so
   its writer blocks; session B's load and check on a model of A's
   shard must still be answered.  A's output is drained before the
   test returns, or the flush at exit would block on the full pipe.
   The delay only lets A fill its pipe first. *)
let unread_output_does_not_stall () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let service =
    fresh_service
      ~config:{ (Service.default_config ()) with Service.executors = 2 } ()
  in
  let same =
    name_on_shard ~executors:2
      ~shard:(Service.shard_of_name ~executors:2 "adhoc") "b"
  in
  let a = open_client service and b = open_client service in
  let flood =
    Thread.create
      (fun () ->
        send_lines a (List.init 5000 (fun _ -> check_line "adhoc"));
        close_out a.requests)
      ()
  in
  Thread.delay 0.5;
  send_lines b
    [ Printf.sprintf {|{"kind": "load", "model": "%s", "builtin": "adhoc"}|}
        same;
      check_line same ];
  let answered = replies_within 5.0 b 2 in
  let a_replies = List.length (replies_within 60.0 a max_int) in
  Thread.join flood;
  Thread.join a.session;
  Unix.close a.replies;
  close_client b;
  Service.stop service;
  Alcotest.(check (list string)) "B answered while A is unread"
    [ "load"; "check" ] (reply_kinds answered);
  Alcotest.(check int) "every flooded line answered" 5000 a_replies

(* With room for two unanswered requests and the model's entry held,
   the third to fifth lines are refused at once; the two admitted checks
   are answered in order after release, and [stats] counts the three
   refusals. *)
let overloaded_sheds_and_recovers () =
  let service =
    fresh_service
      ~config:{ (Service.default_config ()) with Service.queue_bound = 2 } ()
  in
  let a = open_client service in
  let shed =
    Server.Registry.exclusively (held_entry service "adhoc") (fun () ->
        send_lines a
          (List.init 5 (fun i ->
               check_line ~id:(Printf.sprintf "c%d" i) "adhoc"));
        replies_within 5.0 a 3)
  in
  let answered = replies_within 5.0 a 2 in
  send_lines a [ {|{"kind": "stats"}|} ];
  let stats = replies_within 5.0 a 1 in
  close_client a;
  Service.stop service;
  let ids lines =
    List.map (fun line -> expect_string [ "id" ] (Io.Json.of_string line)) lines
  in
  Alcotest.(check (list string)) "refused at once"
    [ "overloaded"; "overloaded"; "overloaded" ] (reply_kinds shed);
  Alcotest.(check (list string)) "refused ids" [ "c2"; "c3"; "c4" ] (ids shed);
  Alcotest.(check (list string)) "admitted answered" [ "check"; "check" ]
    (reply_kinds answered);
  Alcotest.(check (list string)) "in order" [ "c0"; "c1" ] (ids answered);
  match stats with
  | [ line ] ->
    let json = Io.Json.of_string line in
    let number path =
      match member path json with
      | Some (Io.Json.Number v) -> int_of_float v
      | _ -> Alcotest.failf "stats has no number at %s" (String.concat "." path)
    in
    Alcotest.(check int) "overloaded counted" 3 (number [ "overloaded" ]);
    Alcotest.(check int) "checks run" 2 (number [ "requests"; "check" ])
  | _ -> Alcotest.fail "no stats reply"

(* ------------------------------------------------------------------ *)
(* Adversarial transport: torn frames, abrupt disconnects and          *)
(* slow-loris writes against a live TCP listener must never wedge an   *)
(* executor or poison the shared caches.                               *)

let with_tcp_service f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let service = Service.create (Service.default_config ()) in
  (match Service.preload service [ "adhoc" ] with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  let listener, port =
    match Service.tcp_listener ~host:"127.0.0.1" ~port:0 with
    | Ok lp -> lp
    | Error m -> Alcotest.fail m
  in
  let server =
    Thread.create (fun () -> Service.serve_listeners service [ listener ]) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      Service.stop service)
    (fun () -> f port)

let tcp_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let rec attempt tries =
    match
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    with
    | () -> fd
    | exception Unix.Unix_error (ECONNREFUSED, _, _) when tries > 0 ->
      Thread.delay 0.05;
      attempt (tries - 1)
  in
  attempt 100

let send fd text = ignore (Unix.write_substring fd text 0 (String.length text))

let recv_line fd =
  let buf = Buffer.create 256 in
  let byte = Bytes.create 1 in
  let rec loop () =
    match Unix.read fd byte 0 1 with
    | 0 -> Alcotest.failf "connection closed after %S" (Buffer.contents buf)
    | _ ->
      if Bytes.get byte 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get byte 0);
        loop ()
      end
  in
  loop ()

let expect_check_ok label line =
  let json = Io.Json.of_string line in
  match member [ "ok" ] json with
  | Some (Io.Json.Bool true) -> ()
  | _ -> Alcotest.failf "%s: unhealthy response %s" label line

let tcp_adversarial () =
  with_tcp_service @@ fun port ->
  let check_line =
    {|{"kind": "check", "model": "adhoc", "query": "P=? ( F[t<=2] doze )"}|}
    ^ "\n"
  in
  (* Truncated frame: half a JSON object, then the client vanishes.
     The torn line surfaces as a parse_error on a connection nobody
     reads — the server must shrug it off. *)
  let torn = tcp_connect port in
  send torn {|{"kind": "check", "model": "adh|};
  Unix.close torn;
  (* Abrupt disconnect mid-request: a full request whose response has
     nowhere to go (EPIPE on the server's write). *)
  let abrupt = tcp_connect port in
  send abrupt check_line;
  Unix.close abrupt;
  (* Slow loris: the request dribbles in byte by byte; the server's
     blocking reader tolerates it and answers normally. *)
  let loris = tcp_connect port in
  String.iter
    (fun c ->
      send loris (String.make 1 c);
      if Char.code c land 7 = 0 then Thread.delay 0.002)
    check_line;
  expect_check_ok "slow-loris answered" (recv_line loris);
  Unix.close loris;
  (* After all that abuse the service still answers cleanly — no wedged
     executor, no poisoned cache — and shuts down on request. *)
  let healthy = tcp_connect port in
  send healthy check_line;
  expect_check_ok "post-abuse check" (recv_line healthy);
  send healthy "{\"kind\": \"shutdown\"}\n";
  let ack = recv_line healthy in
  Alcotest.(check string) "shutdown acknowledged" "shutdown"
    (expect_string [ "kind" ] (Io.Json.of_string ack));
  Unix.close healthy

(* A shutdown closes the listeners as soon as it is answered, not when
   the connection that sent it ends: that client keeps its socket open,
   and new connections over either transport must be refused within the
   accept loops' poll.  Run once with the shutdown sent over each. *)
let shutdown_stops_listeners () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "perfcheck-shutdown-%d.sock" (Unix.getpid ()))
  in
  let connect addr =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Some fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      None
  in
  (* Connects until one is refused; a connect that still succeeds is
     closed at once, so its session sees EOF. *)
  let refused_within seconds addr =
    let deadline = Unix.gettimeofday () +. seconds in
    let rec poll () =
      match connect addr with
      | None -> true
      | Some fd ->
        Unix.close fd;
        Unix.gettimeofday () < deadline && (Thread.delay 0.02; poll ())
    in
    poll ()
  in
  List.iter
    (fun via ->
      let service = Service.create (Service.default_config ()) in
      let unix_l =
        match Service.unix_listener ~path with
        | Ok l -> l
        | Error m -> Alcotest.fail m
      in
      let tcp_l, port =
        match Service.tcp_listener ~host:"127.0.0.1" ~port:0 with
        | Ok lp -> lp
        | Error m -> Alcotest.fail m
      in
      let addrs =
        [ ("unix", Unix.ADDR_UNIX path);
          ("tcp", Unix.ADDR_INET (Unix.inet_addr_loopback, port)) ]
      in
      let server =
        Thread.create
          (fun () -> Service.serve_listeners service [ unix_l; tcp_l ])
          ()
      in
      let holder =
        match connect (List.assoc via addrs) with
        | Some fd -> fd
        | None -> Alcotest.failf "cannot connect over %s" via
      in
      send holder "{\"kind\": \"shutdown\"}\n";
      Alcotest.(check string) "shutdown acknowledged" "shutdown"
        (expect_string [ "kind" ] (Io.Json.of_string (recv_line holder)));
      List.iter
        (fun (name, addr) ->
          if not (refused_within 5.0 addr) then
            Alcotest.failf
              "a %s connect still succeeds 5 s after a shutdown sent over %s"
              name via)
        addrs;
      Unix.close holder;
      Thread.join server;
      Service.stop service)
    [ "unix"; "tcp" ]

(* The model->shard mapping is explicit FNV-1a, never the
   process-seeded [Hashtbl.hash]: the hash values and the resulting
   shard indices are pinned as literals, so any change to the function
   (or an accidental revert to Hashtbl.hash) fails here rather than
   silently reshuffling models across executors between releases. *)
let fnv_sharding () =
  let hash name expect =
    Alcotest.(check int64)
      (Printf.sprintf "fnv1a64 %S" name)
      expect (Service.fnv1a64 name)
  in
  (* The empty string hashes to the FNV-1a offset basis by definition. *)
  hash "" 0xcbf29ce484222325L;
  hash "adhoc" 0xbad007fdc1efc78aL;
  hash "twin" 0x75001aef5fb9afb3L;
  hash "grid" 0xfb539f7243dbb831L;
  let shard executors name expect =
    Alcotest.(check int)
      (Printf.sprintf "shard of %S at %d executors" name executors)
      expect
      (Service.shard_of_name ~executors name)
  in
  shard 4 "adhoc" 2;
  shard 4 "twin" 3;
  shard 4 "grid" 1;
  shard 4 "chain" 2;
  shard 3 "adhoc" 1;
  shard 3 "twin" 2;
  (* The reduction is the unsigned remainder: hashes with the top bit
     set (e.g. "grid"'s 0xfb53...) must not shard negatively. *)
  shard 2 "grid" 1;
  List.iter
    (fun name ->
      let s = Service.shard_of_name ~executors:1 name in
      Alcotest.(check int) "single executor" 0 s)
    [ ""; "adhoc"; "twin"; "grid"; "chain" ];
  Alcotest.check_raises "executors >= 1 enforced"
    (Invalid_argument "shard_of_name: executors must be >= 1") (fun () ->
      ignore (Service.shard_of_name ~executors:0 "adhoc"));
  let default = Service.default_config () in
  List.iter
    (fun (field, config) ->
      Alcotest.check_raises
        (Printf.sprintf "Service.create: %s >= 1 enforced" field)
        (Invalid_argument
           (Printf.sprintf "Service.create: %s must be >= 1" field))
        (fun () -> ignore (Service.create config)))
    [ ("executors", { default with Service.executors = 0 });
      ("queue_bound", { default with Service.queue_bound = 0 }) ]

let suite =
  ( "server",
    [ Alcotest.test_case "protocol: truncated lines" `Quick truncated_line;
      Alcotest.test_case "sharding: FNV-1a pinned" `Quick fnv_sharding;
      Alcotest.test_case "protocol: structured rejections" `Quick bad_requests;
      QCheck_alcotest.to_alcotest protocol_roundtrip;
      QCheck_alcotest.to_alcotest protocol_wire_roundtrip;
      QCheck_alcotest.to_alcotest protocol_fuzz;
      Alcotest.test_case "admission: bound and FIFO" `Quick admission_bound;
      Alcotest.test_case "quantile: request vs hand inversion" `Quick
        quantile_request;
      Alcotest.test_case "frontier: request vs hand solves" `Quick
        frontier_request;
      Alcotest.test_case "service: differential vs Checker" `Quick
        differential_check;
      Alcotest.test_case "service: deadline mid-Sericola" `Quick
        deadline_mid_sericola;
      Alcotest.test_case "service: evict with in-flight work" `Quick
        evict_in_flight;
      Alcotest.test_case "service: pipe session" `Quick pipe_session;
      Alcotest.test_case "admission: racing try_push, exact bound" `Quick
        admission_racing_bound;
      Alcotest.test_case "admission: concurrent producers FIFO" `Quick
        admission_concurrent_producers;
      Alcotest.test_case "service: stress session at executors 1/2/4" `Quick
        stress_session;
      Alcotest.test_case
        "service: a barrier or EOF in one session does not stall another"
        `Quick barrier_does_not_stall;
      Alcotest.test_case
        "service: a client that stops reading does not stall other sessions"
        `Quick unread_output_does_not_stall;
      Alcotest.test_case "service: overloaded sheds and recovers" `Quick
        overloaded_sheds_and_recovers;
      Alcotest.test_case "service: adversarial TCP transport" `Quick
        tcp_adversarial;
      Alcotest.test_case "service: shutdown stops the listeners" `Quick
        shutdown_stops_listeners ] )
