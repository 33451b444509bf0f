(* What every workload shares: the clock, the timed op loop, order
   statistics, process probes (peak RSS, GC deltas) and the metric
   record run.exe prints. *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let rng ~seed ~salt = Random.State.make [| seed; salt |]

(* [out_file name]: the path of an output file (trace, server socket)
   under _build/bench_out/, which version control already ignores. *)
let out_file name =
  let dir = Filename.concat "_build" "bench_out" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ "_build"; dir ];
  Filename.concat dir name

(* The [k]-th point of a seeded low-discrepancy sequence in [lo, hi)
   along [axis] (0 or 1): the R2 sequence shifted by a per-seed offset.
   Every seed gives other reals, but any run of consecutive [k] covers
   the range evenly, so the cost mix of a run — and with it the medians
   the benchmark reports — barely depends on the seed. *)
let spread ~seed ~salt ~axis k lo hi =
  let alpha = if axis = 0 then 0.7548776662466927 else 0.5698402909980532 in
  let offset =
    Random.State.float (rng ~seed ~salt:(salt + (7919 * axis))) 1.0
  in
  let x = offset +. (alpha *. float_of_int k) in
  lo +. (Float.rem x 1.0 *. (hi -. lo))

(* ------------------------------------------------------------------ *)
(* Order statistics.                                                   *)

(* Linear interpolation between closest ranks, on a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    let frac = x -. float_of_int i in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
  end

let sorted_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_of xs) 0.5

(* Bit-for-bit equality of two vectors: the benchmark's oracle for paths
   that must compute exactly the same floats. *)
let bit_equal (x : Linalg.Vec.t) (y : Linalg.Vec.t) =
  Linalg.Vec.length x = Linalg.Vec.length y
  && List.for_all
       (fun i ->
         Int64.equal (Int64.bits_of_float x.{i}) (Int64.bits_of_float y.{i}))
       (List.init (Linalg.Vec.length x) Fun.id)

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Metrics and the result of one workload run.                         *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;  (** ops started *)
  failed : int;     (** ops that raised or whose answer broke an oracle *)
  checks : (string * bool) list;
      (** run-level oracles (pinned values, replay identity, ...) *)
  metrics : metric list;
}

let correct o = o.failed = 0 && List.for_all snd o.checks

(* ------------------------------------------------------------------ *)
(* Timed loops.                                                        *)

type samples = {
  durations : float list;  (** seconds per op, in op order *)
  elapsed : float;         (** wall seconds of the whole loop *)
  ops : int;
  op_failures : int;
}

(* Run [op i] for i = 0, 1, ... until [seconds] have elapsed, and at
   least [min_ops] times.  [op] answers whether its oracle held; an
   exception counts as a failed op, not as a crash. *)
let timed_loop ~seconds ~min_ops op =
  let start = now () in
  let durations = ref [] and failures = ref 0 and i = ref 0 in
  while !i < min_ops || now () -. start < seconds do
    let t0 = now () in
    let ok =
      try op !i
      with e ->
        Printf.eprintf "op %d raised %s\n%!" !i (Printexc.to_string e);
        false
    in
    durations := (now () -. t0) :: !durations;
    if not ok then incr failures;
    incr i
  done;
  { durations = List.rev !durations; elapsed = now () -. start; ops = !i;
    op_failures = !failures }

(* Run set-up [f] five times, keeping the wall time of each run and the
   last result; [release] (untimed) disposes of the others.  [setup_s]
   is the median, so one slow page-in or a burst of outside load does
   not move it. *)
let time_setup ?(release = ignore) f =
  let rec go k times =
    let t0 = now () in
    let r = f () in
    let times = (now () -. t0) :: times in
    if k = 1 then (List.rev times, r)
    else begin
      release r;
      go (k - 1) times
    end
  in
  go 5 []

(* ------------------------------------------------------------------ *)
(* Process probes.                                                     *)

(* VmHWM (peak resident set) of a process, in MiB, from /proc. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    let line =
      List.find_opt
        (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
        (String.split_on_char '\n' text)
    in
    (match line with
     | None -> nan
     | Some l ->
       Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
         (fun kb -> float_of_int kb /. 1024.0))

type gc_delta = {
  minor_words : float;
  major_words : float;
  major_collections : int;
}

let gc_measure f =
  let before = Gc.quick_stat () in
  let result = f () in
  let after = Gc.quick_stat () in
  ( result,
    { minor_words = after.Gc.minor_words -. before.Gc.minor_words;
      major_words = after.Gc.major_words -. before.Gc.major_words;
      major_collections =
        after.Gc.major_collections - before.Gc.major_collections } )

let gc_add a b =
  { minor_words = a.minor_words +. b.minor_words;
    major_words = a.major_words +. b.major_words;
    major_collections = a.major_collections + b.major_collections }

type 'a paired = {
  plain : 'a list;        (** untraced results, in op order *)
  traced : 'a list;       (** traced results, in op order *)
  plain_seconds : float;  (** total wall time of the untraced ops *)
  gc : gc_delta;          (** allocation of the untraced ops *)
}

(* The traced run: op i untraced, then op i traced, for every i.  Both
   passes see the same heap and the same host load, so the ratio of
   their times is the tracing overhead rather than an order effect. *)
let paired ~ops ~plain ~traced =
  let zero = { minor_words = 0.0; major_words = 0.0; major_collections = 0 } in
  let rec go i acc_p acc_t seconds gc =
    if i = ops then
      { plain = List.rev acc_p; traced = List.rev acc_t;
        plain_seconds = seconds; gc }
    else begin
      let t0 = now () in
      let p, d = gc_measure (fun () -> plain i) in
      let dt = now () -. t0 in
      let t = traced i in
      go (i + 1) (p :: acc_p) (t :: acc_t) (seconds +. dt) (gc_add gc d)
    end
  in
  go 0 [] [] 0.0 zero

(* A telemetry counter as a float, 0 when never recorded. *)
let counter tel name =
  float_of_int (Option.value ~default:0 (Telemetry.counter tel name))

let per_op tel ~ops name =
  metric name "count" (counter tel name /. float_of_int (max 1 ops))

let gc_metrics ~ops d =
  let per x = x /. float_of_int (max 1 ops) in
  [ metric "gc.minor_words_per_op" "words" (per d.minor_words);
    metric "gc.major_words_per_op" "words" (per d.major_words);
    metric "gc.major_collections" "count" (float_of_int d.major_collections) ]

(* ------------------------------------------------------------------ *)
(* End-to-end metrics, the same five on every workload.                *)

(* [p50] and [p90] are seconds per op; [rss_mb] is the peak of the
   process doing the work. *)
let end_to_end ~setup ~p50 ~p90 ~ops_per_s ~rss_mb =
  [ metric "setup_s" "s" (median setup);
    metric "op_p50_ms" "ms" (1000.0 *. p50);
    metric "op_p90_ms" "ms" (1000.0 *. p90);
    metric "ops_per_s" "1/s" ops_per_s;
    metric "peak_rss_mb" "MB" rss_mb ]

(* The end-to-end metrics of a closed loop; [work_per_op] turns ops into
   the unit [ops_per_s] counts (queries, for a batch). *)
let loop_end_to_end ?(work_per_op = 1.0) ~setup s =
  let sorted = sorted_of s.durations in
  end_to_end ~setup ~p50:(percentile sorted 0.5) ~p90:(percentile sorted 0.9)
    ~ops_per_s:(work_per_op *. float_of_int s.ops /. s.elapsed)
    ~rss_mb:(peak_rss_mb ())

(* The human summary printed above the result line, with the number of
   latency samples behind the percentiles (the result line has no room
   for it). *)
let describe ~workload ~ops ~seconds latencies =
  let sorted = sorted_of latencies in
  Printf.printf
    "%s: %d ops in %.2f s; over %d samples p50 %.3f ms, p90 %.3f ms, \
     p99 %.3f ms, max %.3f ms\n%!"
    workload ops seconds (Array.length sorted)
    (1000.0 *. percentile sorted 0.5)
    (1000.0 *. percentile sorted 0.9)
    (1000.0 *. percentile sorted 0.99)
    (1000.0 *. percentile sorted 1.0)

let describe_loop ~workload s =
  describe ~workload ~ops:s.ops ~seconds:s.elapsed s.durations
