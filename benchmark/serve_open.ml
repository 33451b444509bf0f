(* serve-open: a csrl-serve process with two executors, eight builtin
   aliases (two each of adhoc, adhoc-srn, cluster and the tracked
   multiprocessor), one connection with one writer and one reader
   thread.  Kernel work per request is small, so protocol, admission,
   sharding, reordering and registry locks are a visible share, and this
   is the only workload where queueing shows.

   Set-up spawns the server, loads every alias and primes every repeated
   P3 key, so no cold P3 solve lands inside the measurement.  Then an
   open loop sends 100 requests/s for 70% of the run, each timed from
   when it was due; the mix is 75% fresh P1 checks with seeded real
   bounds, 23% repeated P3 checks (memo hits) and 2% stats/list (session
   barriers).  A closed loop with 32 requests in flight and the same mix
   fills the other 30% and gives ops_per_s, the throughput. *)

let rate = 100.0
let in_flight = 32

(* Fresh P1 checks and three repeated P3 keys per builtin.  The fresh
   checks follow `bench serve-scale`'s session (distinct-horizon
   transient checks over builtin aliases spread over the shards); the
   rate, the 75/23/2 proportions and the horizons are synthetic, not
   taken from any recorded use, and the horizons are tuned for low
   spread.  On a 2-core x86 host a fresh check costs about 1.3 ms on the
   cluster, 2 ms on adhoc and 5 ms on the tracked multiprocessor: sorted
   by latency the median request is an adhoc check and the 90th
   percentile a multiprocessor one, each well inside its class, so the
   percentiles measure solves rather than where two classes meet. *)
type source = {
  builtin : string;
  p1 : float -> string;
  p1_horizon : float * float;
  p3 : string list;
}

let sources =
  let p3 phi psi bounds =
    List.map
      (fun (t, r) -> Printf.sprintf "P=? ( %s U[t<=%g][r<=%g] %s )" phi t r psi)
      bounds
  in
  let adhoc builtin =
    { builtin; p1 = Printf.sprintf "P=? ( F[t<=%.3f] call_initiated )";
      p1_horizon = (110.0, 130.0);
      p3 =
        p3 "(call_idle | doze)" "call_initiated"
          [ (4., 100.); (6., 150.); (8., 200.) ] }
  in
  [| adhoc "adhoc"; adhoc "adhoc-srn";
     { builtin = "cluster"; p1 = Printf.sprintf "P=? ( true U[t<=%.3f] down )";
       p1_horizon = (55000.0, 65000.0);
       p3 =
         p3 "available" "down"
           [ (100., 2000.); (200., 4000.); (300., 6000.) ] };
     { builtin = "multiprocessor-tracked";
       p1 = Printf.sprintf "P=? ( true U[t<=%.3f] down )";
       p1_horizon = (65000.0, 75000.0);
       p3 = p3 "up" "degraded" [ (20., 40.); (40., 80.); (60., 120.) ] } |]

(* Two aliases per builtin, one on each shard of a two-executor server. *)
let aliases =
  Array.concat
    (List.map
       (fun src ->
         Array.init 2 (fun shard ->
             let rec pick k =
               let name = Printf.sprintf "%s-%d" src.builtin k in
               if Server.Service.shard_of_name ~executors:2 name = shard
               then name
               else pick (k + 1)
             in
             (pick 0, src)))
       (Array.to_list sources))

(* A fixed permutation of 100 slots: 75 P1, 23 P3, one stats, one list. *)
let slots =
  let a = Array.init 100 Fun.id in
  let st = Random.State.make [| 100 |] in
  for i = 99 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type request = {
  line : string;
  query : string option;  (** the CSRL text of a check *)
  stats : bool;           (** answers depend on history, not replayable *)
}

let request ~seed i =
  let slot = slots.(i mod 100) in
  let name, src = aliases.(i mod Array.length aliases) in
  let check query =
    { line =
        Printf.sprintf {|{"kind":"check","id":"r%d","model":"%s","query":"%s"}|}
          i name query;
      query = Some query; stats = false }
  in
  if slot < 75 then
    let lo, hi = src.p1_horizon in
    check (src.p1 (Harness.spread ~seed ~salt:0 ~axis:0 i lo hi))
  else if slot < 98 then check (List.nth src.p3 (i / 8 mod 3))
  else
    let kind = if slot = 98 then "stats" else "list" in
    { line = Printf.sprintf {|{"kind":"%s","id":"r%d"}|} kind i; query = None;
      stats = slot = 98 }

let setup_lines =
  let aliases = Array.to_list aliases in
  List.map
    (fun (name, src) ->
      Printf.sprintf {|{"kind":"load","model":"%s","builtin":"%s"}|} name
        src.builtin)
    aliases
  @ List.concat_map
      (fun (name, src) ->
        List.map
          (Printf.sprintf {|{"kind":"check","model":"%s","query":"%s"}|} name)
          src.p3)
      aliases

(* ------------------------------------------------------------------ *)
(* The server process and its connection.                              *)

type server = {
  pid : int;
  sock : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
}

(* csrl-serve is built next to this program by the same dune build. *)
let server_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/csrl_serve.exe"

(* Spawn csrl-serve on a Unix-domain socket under _build/bench_out/ and
   connect once it accepts.  TCP is not used: csrl-serve leaves Nagle's
   algorithm on, and against a client's delayed acknowledgements a
   response then waits for the next request, so on TCP the latency of
   this 100 requests/s loop flips between about 1 ms and about 10 ms
   from run to run. *)
let spawn () =
  let exe = server_exe () in
  if not (Sys.file_exists exe) then
    failwith ("serve-open: " ^ exe ^ " is missing; build bin/csrl_serve.exe");
  let path =
    Harness.out_file (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "--executors"; "2"; "--socket"; path |]
      null null Unix.stderr
  in
  Unix.close null;
  at_exit (fun () ->
      (* Only reached with the server still running when the run failed
         before [shutdown]. *)
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        Unix.kill pid Sys.sigterm;
        ignore (Unix.waitpid [] pid)
      | _ | (exception Unix.Unix_error _) -> ());
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec connect tries =
    match Unix.connect sock (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Thread.delay 0.005;
      connect (tries - 1)
  in
  connect 2000;
  { pid; sock; ic = Unix.in_channel_of_descr sock;
    oc = Unix.out_channel_of_descr sock }

let send s line =
  output_string s.oc line;
  output_char s.oc '\n';
  flush s.oc

(* Send [lines] pipelined and wait for all their responses. *)
let exchange s lines =
  List.iter (send s) lines;
  List.map (fun _ -> input_line s.ic) lines

let is_ok json = Io.Json.member "ok" json = Some (Io.Json.Bool true)

let shutdown s =
  ignore (exchange s [ {|{"kind":"shutdown"}|} ]);
  Unix.close s.sock;
  ignore (Unix.waitpid [] s.pid)

(* Spawn, load every alias and prime every repeated key: afterwards the
   server is in the state every measured request sees. *)
let start () =
  let s = spawn () in
  let replies = exchange s setup_lines in
  if not (List.for_all (fun l -> is_ok (Io.Json.of_string l)) replies) then
    failwith "serve-open: a load or priming request failed";
  s

(* ------------------------------------------------------------------ *)
(* Load generation.                                                    *)

type reply = { text : string; received : float; ok : bool }

let read_reply s =
  let text = input_line s.ic in
  let received = Harness.now () in
  let json = Io.Json.of_string text in
  let index =
    match Option.bind (Io.Json.member "id" json) Io.Json.to_text with
    | Some id when String.length id > 1 && id.[0] = 'r' ->
      int_of_string_opt (String.sub id 1 (String.length id - 1))
    | _ -> None
  in
  (index, { text; received; ok = is_ok json })

type open_loop = {
  latency : float list;  (** seconds from due time to reply *)
  lag : float list;      (** seconds the generator sent late *)
  replies : reply array;
}

(* Requests [0, count) at [rate] per second, whatever the server does. *)
let open_loop s ~seed ~count =
  let replies = Array.make count { text = ""; received = nan; ok = false } in
  let reader =
    Thread.create
      (fun () ->
        for _ = 1 to count do
          match read_reply s with
          | Some i, r when i < count -> replies.(i) <- r
          | _ -> ()
        done)
      ()
  in
  let t0 = Harness.now () in
  let due i = t0 +. (float_of_int i /. rate) in
  let lag =
    List.init count (fun i ->
        let wait = due i -. Harness.now () in
        if wait > 0.0 then Thread.delay wait;
        let late = Harness.now () -. due i in
        send s (request ~seed i).line;
        late)
  in
  Thread.join reader;
  { latency =
      Array.to_list (Array.mapi (fun i r -> r.received -. due i) replies);
    lag; replies }

(* Requests from [first] on with [in_flight] outstanding, for [seconds]
   and at least [min_requests]; a final list request with id "end"
   tells the reader the stream is over.  Returns the requests sent, the
   failed replies and the throughput: the median over quarter-second
   windows of the completions per second, so a burst of load from
   outside the benchmark moves one window, not the result. *)
let closed_loop s ~seed ~first ~seconds ~min_requests =
  let m = Mutex.create () and freed = Condition.create () in
  let outstanding = ref 0 and failures = ref 0 and completed = ref [] in
  let lost = ref false in
  let reader =
    Thread.create
      (fun () ->
        let rec loop () =
          match read_reply s with
          | None, _ -> ()
          | Some _, r ->
            Mutex.protect m (fun () ->
                decr outstanding;
                if not r.ok then incr failures;
                completed := r.received :: !completed;
                Condition.signal freed);
            loop ()
        in
        (* A server that dies mid-loop must not leave the writer
           waiting: its outstanding requests count as failed. *)
        try loop ()
        with End_of_file | Sys_error _ ->
          Mutex.protect m (fun () ->
              lost := true;
              failures := !failures + !outstanding;
              Condition.signal freed))
      ()
  in
  let t0 = Harness.now () in
  let sent = ref 0 in
  while
    (not !lost) && (!sent < min_requests || Harness.now () -. t0 < seconds)
  do
    Mutex.protect m (fun () ->
        while !outstanding >= in_flight && not !lost do
          Condition.wait freed m
        done;
        incr outstanding);
    if not !lost then send s (request ~seed (first + !sent)).line;
    incr sent
  done;
  if not !lost then send s {|{"kind":"list","id":"end"}|};
  Thread.join reader;
  let window = 0.25 in
  let last = List.fold_left Float.max t0 !completed in
  let windows = int_of_float ((last -. t0) /. window) in
  let throughput =
    if windows < 1 then float_of_int !sent /. (last -. t0)
    else
      Harness.median
        (List.init windows (fun w ->
             let lo = t0 +. (window *. float_of_int w) in
             let inside t = t >= lo && t < lo +. window in
             float_of_int (List.length (List.filter inside !completed))
             /. window))
  in
  (!sent, !failures, throughput)

(* ------------------------------------------------------------------ *)
(* In-process replay: the same requests through [Service.execute].    *)

let replay_service ?telemetry () =
  let service =
    Server.Service.create
      { (Server.Service.default_config ~clock:Harness.now ()) with
        Server.Service.telemetry }
  in
  List.iter
    (fun line ->
      match Server.Protocol.of_line line with
      | Ok env -> ignore (Server.Service.execute service env)
      | Error e -> failwith ("serve-open: " ^ e.Server.Protocol.message))
    setup_lines;
  service

let respond service line =
  Io.Json.to_string
    (match Server.Protocol.of_line line with
     | Ok env -> Server.Service.execute service env
     | Error e -> Server.Protocol.response_error e)

(* A seeded 5% of the replies, plus the first two, must be
   string-equal to the in-process replay of the same requests (stats
   replies depend on the session's history and are skipped). *)
let replay_check ~seed replies =
  let service = replay_service () in
  let st = Harness.rng ~seed ~salt:(-7) in
  let sample =
    List.filter
      (fun i ->
        (i < 2 || Random.State.float st 1.0 < 0.05)
        && not (request ~seed i).stats)
      (List.init (Array.length replies) Fun.id)
  in
  let agree =
    List.filter
      (fun i -> respond service (request ~seed i).line = replies.(i).text)
      sample
  in
  (List.length agree, List.length sample)

let p99 xs = Harness.percentile (Harness.sorted_of xs) 0.99

(* The median over one-second windows (100 requests) of each window's
   [p]-th percentile: robust to a burst of outside load in one window. *)
let windowed_percentile latencies p =
  let a = Array.of_list latencies in
  let of_window xs = Harness.percentile (Harness.sorted_of xs) p in
  match Array.length a / 100 with
  | 0 -> of_window latencies
  | n ->
    Harness.median
      (List.init n (fun w ->
           of_window (Array.to_list (Array.sub a (w * 100) 100))))

let run ~seed ~seconds =
  let setup_times, s = Harness.time_setup ~release:shutdown start in
  let open_count = max 20 (int_of_float (0.7 *. seconds *. rate)) in
  let o = open_loop s ~seed ~count:open_count in
  let closed_sent, closed_failures, capacity =
    closed_loop s ~seed ~first:open_count ~seconds:(0.3 *. seconds)
      ~min_requests:40
  in
  let rss_mb = Harness.peak_rss_mb ~pid:(string_of_int s.pid) () in
  shutdown s;
  Harness.describe ~workload:"serve-open" ~ops:open_count
    ~seconds:(float_of_int open_count /. rate) o.latency;
  Printf.printf "op_p50_ms and op_p90_ms: medians over %d one-second windows\n"
    (max 1 (open_count / 100));
  Printf.printf "generator lag p99 %.3f ms; closed loop %d requests at %.1f/s\n"
    (1000.0 *. p99 o.lag) closed_sent capacity;
  let agree, sampled = replay_check ~seed o.replies in
  Printf.printf "replay: %d of %d sampled replies string-equal\n" agree sampled;
  let open_failures =
    Array.fold_left (fun n r -> if r.ok then n else n + 1) 0 o.replies
  in
  { Harness.attempted = open_count + closed_sent;
    failed = open_failures + closed_failures + (sampled - agree);
    checks = [];
    metrics =
      Harness.end_to_end ~setup:setup_times
        ~p50:(windowed_percentile o.latency 0.5)
        ~p90:(windowed_percentile o.latency 0.9) ~ops_per_s:capacity ~rss_mb }

let trace ~seed ~ops tr =
  (* The client's view: the open loop against the real server. *)
  let s = start () in
  let o = open_loop s ~seed ~count:ops in
  let stats =
    Io.Json.of_string (List.hd (exchange s [ {|{"kind":"stats"}|} ]))
  in
  shutdown s;
  let stat path =
    let rec get json = function
      | [] -> Option.value ~default:0.0 (Io.Json.to_float json)
      | k :: rest -> (
          match Io.Json.member k json with Some j -> get j rest | None -> 0.0)
    in
    get stats path
  in
  (* The server's view: the same requests replayed in process after the
     same set-up, untraced on one service and traced on another.  Each op
     starts with an empty Fox–Glynn memo, as a fresh P1 check does in
     the server. *)
  let plain_service = replay_service () in
  let tel = Telemetry.create () in
  let traced_service = replay_service ~telemetry:tel () in
  Telemetry.reset tel;
  let span name f = Spans.span (Some tr) name f in
  let plain i =
    Numerics.Fox_glynn.cache_clear ();
    respond plain_service (request ~seed i).line
  in
  let traced i =
    let r = request ~seed i in
    Numerics.Fox_glynn.cache_clear ();
    let text =
      Spans.op tr i (fun () ->
          let env =
            span "server.decode" (fun () -> Server.Protocol.of_line r.line)
          in
          let json =
            span "server.execute" (fun () ->
                match env with
                | Ok env -> Server.Service.execute traced_service env
                | Error e -> Server.Protocol.response_error e)
          in
          span "server.encode" (fun () -> Io.Json.to_string json))
    in
    Option.iter
      (fun q -> ignore (span "logic.parse" (fun () -> Logic.Parser.query q)))
      r.query;
    text
  in
  let p = Harness.paired ~ops ~plain ~traced in
  let agree =
    List.for_all2 ( = ) p.plain p.traced
    && List.for_all Fun.id
         (List.mapi
            (fun i text -> (request ~seed i).stats || text = o.replies.(i).text)
            p.plain)
  in
  let median name = Harness.median (Spans.durations tr name) in
  let execute = Harness.sorted_of (Spans.durations tr "server.execute") in
  let lag = p99 o.lag in
  if lag > 0.010 then
    Printf.printf "INVALID RUN: the generator fell %.1f ms behind at p99\n"
      (1000.0 *. lag);
  let per_op = Harness.per_op tel ~ops and us = Spans.mean_us tr in
  { Harness.attempted = ops;
    failed = Array.fold_left (fun n r -> if r.ok then n else n + 1) 0 o.replies;
    checks = [ ("server replies equal the in-process replay", agree) ];
    metrics =
      [ us "logic.parse"; us "server.decode";
        Harness.metric "server.execute_p50_ms" "ms"
          (1000.0 *. Harness.percentile execute 0.5);
        Harness.metric "server.execute_p99_ms" "ms"
          (1000.0 *. Harness.percentile execute 0.99);
        us "server.encode";
        (* Derived, not measured: what the client waited beyond decode,
           execute and encode — transport, admission, dispatch, reorder. *)
        Harness.metric "server.wait_ms" "ms"
          (1000.0
          *. (Harness.median o.latency
             -. median "server.decode" -. median "server.execute"
             -. median "server.encode"));
        Harness.metric "server.requests" "count" (stat [ "requests"; "total" ]);
        Harness.metric "server.error_responses" "count" (stat [ "errors" ]);
        Harness.metric "server.overloaded" "count" (stat [ "overloaded" ]);
        Harness.metric "serve.latency_p99_ms" "ms" (1000.0 *. p99 o.latency);
        Harness.metric "serve.gen_lag_ms" "ms" (1000.0 *. lag);
        per_op "sericola.layers"; per_op "sericola.cells";
        per_op "uniformisation.iterations" ]
      @ Spans.validity tr ~plain_seconds:p.plain_seconds
      @ Harness.gc_metrics ~ops p.gc }
