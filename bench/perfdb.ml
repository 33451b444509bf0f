(* perfdb: deterministic per-kernel performance scores.

   Wall-clock bench gates are noisy in CI (shared runners, turbo,
   scheduling); following the nim-lang/ci_bench recipe, each numerical
   kernel is instead run as a small self-contained workload under
   `valgrind --tool=cachegrind` with *pinned* cache parameters, so the
   reported instruction and cache-miss counts are properties of the
   code, not of the machine.  Scores are appended to a committed CSV
   (perf/perfdb.csv) keyed by commit; validate_perfdb.exe gates each
   new row against the previous one.

     bench/main.exe perfdb                      # all kernels, auto backend
     bench/main.exe perfdb spmv sericola        # a subset
     bench/main.exe perfdb --backend cachegrind --note "allow: layout"

   Two backends:

   - [cachegrind]: spawns `setarch -R valgrind --tool=cachegrind` with
     the pinned I1/D1/LL geometry below on `main.exe perfdb-exec
     KERNEL` and parses the events/summary lines of the output file.
     Requires valgrind; CI installs it.

   - [alloc]: runs the workload in-process and records the *exact*
     words allocated on the minor and major heaps (GC counters are
     deterministic for a deterministic workload).  This is the
     graceful degradation when valgrind is absent, and it directly
     measures the allocation-free-inner-loop claim of the Bigarray
     layout work.

   Backend [auto] picks cachegrind when valgrind is on PATH. *)

(* Pinned cache geometry (Haswell-ish, same values as ci_bench): the
   point is not realism but that every run — any machine, any year —
   simulates the same cache. *)
let pinned_cache_flags =
  [ "--I1=32768,8,64"; "--D1=32768,8,64"; "--LL=8388608,16,64" ]

let csv_header =
  [ "commit"; "kernel"; "backend"; "instructions"; "d1_misses"; "ll_misses";
    "minor_words"; "major_words"; "note" ]

(* ------------------------------------------------------------------ *)
(* Workloads.  Each kernel is (prepare, run): [prepare] builds the
   model and scratch storage, the returned thunk is the measured part.
   Sizes are chosen so one run takes O(100ms) natively — enough for
   the kernel to dominate process startup under cachegrind while
   keeping the alloc-backend smoke fast. *)

type workload = {
  name : string;
  descr : string;
  prepare : unit -> unit -> unit;
}

(* Sat Phi and Sat Psi of the paper's Q3 on the ad hoc model. *)
let q3_masks () =
  let l = Models.Adhoc.labeling () in
  let idle = Markov.Labeling.sat l "call_idle" in
  let doze = Markov.Labeling.sat l "doze" in
  let phi = Array.mapi (fun i a -> a || doze.(i)) idle in
  (phi, Markov.Labeling.sat l "call_initiated")

let q3_problem ~r =
  let m = Models.Adhoc.mrm () in
  let phi, psi = q3_masks () in
  let red = Perf.Reduced.reduce m ~phi ~psi in
  let init = Linalg.Vec.unit 9 Models.Adhoc.initial_state in
  Perf.Reduced.problem red ~init ~time_bound:24.0 ~reward_bound:r

let multiprocessor ~n_processors =
  { Models.Multiprocessor.n_processors; failure_rate = 0.2;
    repair_rate = 1.0; capacity = 8; throughput_per_processor = 1.0 }

let tracked_multiprocessor ~n_processors =
  Models.Multiprocessor.tracked_performability
    (multiprocessor ~n_processors) ~t:10.0 ~r:50.0

(* The 120 x 120 .gcm grid (14,641 reachable states) of the explore
   kernels. *)
let grid_120 () =
  match
    Lang.Gcm.of_string (Models.Gcm_examples.grid ~frontier_at:40 ~n:120 ())
  with
  | Ok succ -> succ
  | Error message -> failwith message

let workloads =
  [ { name = "spmv";
      descr = "CSR SpMV x.P and P.x on the 512-state tracked multiprocessor";
      prepare =
        (fun () ->
          let p = tracked_multiprocessor ~n_processors:9 in
          let chain = Markov.Mrm.ctmc p.Perf.Problem.mrm in
          let _lambda, pmat = Markov.Ctmc.uniformized chain in
          let n = Markov.Ctmc.n_states chain in
          let x = Linalg.Vec.create n in
          Linalg.Vec.fill x (1.0 /. float_of_int n);
          let y = Linalg.Vec.create n in
          fun () ->
            for _ = 1 to 400 do
              Linalg.Csr.vec_mul_into x pmat y;
              Linalg.Csr.mul_vec_into pmat x y
            done) };
    { name = "sericola";
      descr = "occupation-time C(h,n,k) recursion on the ad hoc Q3 problem";
      prepare =
        (fun () ->
          let p = q3_problem ~r:600.0 in
          fun () ->
            ignore (Perf.Sericola.solve ~epsilon:1e-7 p : float)) };
    { name = "sericola_rows";
      descr = "ad hoc Q3 reduction pipeline through the rows entry: three \
               rows, one recursion";
      prepare =
        (fun () ->
          let phi, psi = q3_masks () in
          let pipeline = Perf.Reduction.prepare (Models.Adhoc.mrm ()) ~phi ~psi in
          let solve_rows =
            Perf.Engine.solve_rows (Perf.Engine.Occupation_time { epsilon = 1e-7 })
          in
          fun () ->
            ignore
              (Perf.Reduction.until_rows_on pipeline solve_rows ~phi ~psi
                 ~time_bound:24.0 ~reward_bound:600.0
                : Linalg.Vec.t)) };
    { name = "discretization";
      descr = "Tijms-Veldman stepper, d = 1/32, on the ad hoc Q3 problem";
      prepare =
        (fun () ->
          let p = q3_problem ~r:600.0 in
          fun () ->
            ignore (Perf.Discretization.solve ~step:(1.0 /. 32.0) p : float)) };
    { name = "erlang";
      descr = "pseudo-Erlang expansion (k = 32) + transient solve";
      prepare =
        (fun () ->
          let p = q3_problem ~r:600.0 in
          fun () ->
            ignore
              (Perf.Erlang_approx.solve ~epsilon:1e-8 ~phases:32 p : float)) };
    { name = "fox_glynn";
      descr = "Fox-Glynn Poisson windows over a sweep of q";
      prepare =
        (fun () ->
          fun () ->
            for q10 = 1 to 400 do
              (* The process-wide window memo would absorb the sweep, so
                 force a fresh computation per q. *)
              Numerics.Fox_glynn.cache_clear ();
              let w =
                Numerics.Fox_glynn.compute
                  ~q:(float_of_int q10 /. 2.0) ~epsilon:1e-10
              in
              ignore (w.Numerics.Fox_glynn.total : float)
            done) };
    { name = "reduction_rows";
      descr = "quotient-and-prune pipeline + reduced occupation-time rows \
               for up U down on the 128-state tracked multiprocessor";
      prepare =
        (fun () ->
          let c = multiprocessor ~n_processors:7 in
          let m = Models.Multiprocessor.tracked_mrm c in
          let sat = Markov.Labeling.sat (Models.Multiprocessor.tracked_labeling c) in
          let phi = sat "up" and psi = sat "down" in
          let solve_rows =
            Perf.Engine.solve_rows (Perf.Engine.Occupation_time { epsilon = 1e-6 })
          in
          fun () ->
            (* The pipeline is built inside the measured thunk: the
               kernel scores set-up and solve together. *)
            let pipeline = Perf.Reduction.prepare m ~phi ~psi in
            ignore
              (Perf.Reduction.until_rows_on pipeline solve_rows ~phi ~psi
                 ~time_bound:10.0 ~reward_bound:50.0
                : Linalg.Vec.t)) };
    { name = "reduction_prepare";
      descr = "Theorem 1, goal-unreachable search and lumping of the \
               512-state tracked multiprocessor under up U down";
      prepare =
        (fun () ->
          (* The P3 pipeline set-up of check-cold's multiprocessor slots:
             513 states after Theorem 1, nothing goal-unreachable to
             merge, 10 blocks after lumping. *)
          let c = multiprocessor ~n_processors:9 in
          let m = Models.Multiprocessor.tracked_mrm c in
          let sat = Markov.Labeling.sat (Models.Multiprocessor.tracked_labeling c) in
          let phi = sat "up" and psi = sat "down" in
          fun () ->
            ignore (Perf.Reduction.prepare m ~phi ~psi : Perf.Reduction.t)) };
    { name = "robust_envelope";
      descr = "lower/upper robust value iteration on the drifted ad hoc Q3";
      prepare =
        (fun () ->
          let m = Models.Adhoc.mrm () in
          let l = Models.Adhoc.labeling () in
          let imrm = Robust.Imrm.of_mrm ~rate_drift:0.1 m in
          let idle = Markov.Labeling.sat l "call_idle" in
          let doze = Markov.Labeling.sat l "doze" in
          let phi = Array.mapi (fun i a -> a || doze.(i)) idle in
          let psi = Markov.Labeling.sat l "call_initiated" in
          fun () ->
            for _ = 1 to 5 do
              ignore
                (Robust.Envelope.until ~epsilon:1e-9 imrm ~phi_must:phi
                   ~phi_may:phi ~psi_must:psi ~psi_may:psi ~time_bound:24.0
                   ~reward_bound:(Some 600.0)
                  : Robust.Envelope.result)
            done) };
    { name = "windowed_transient";
      descr = "sliding-window truncated uniformisation on the .gcm grid";
      prepare =
        (fun () ->
          let succ = grid_120 () in
          let classify s =
            if succ.Explore.Succ.holds s "frontier" then
              Explore.Windowed.Absorb { goal = true }
            else Explore.Windowed.Transient { counts = false }
          in
          fun () ->
            (* A fresh space per run: state discovery and interning are
               part of the measured kernel, like a cold CLI check. *)
            for _ = 1 to 3 do
              let space = Explore.Space.create succ in
              ignore
                (Explore.Windowed.solve ~epsilon:1e-9 ~classify
                   ~init:[ (succ.Explore.Succ.initial, 1.0) ]
                   ~t:12.0 ~reward_bound:None space
                  : Explore.Windowed.outcome)
            done) };
    { name = "explore_expand";
      descr = "cold Space.close of the .gcm grid: successors and interning";
      prepare =
        (fun () ->
          let succ = grid_120 () in
          fun () ->
            (* Every reachable state expanded once: the expansion cost
               the windowed_transient kernel pays per newly seen state,
               without the sweep. *)
            match Explore.Space.close (Explore.Space.create succ) with
            | Ok () -> ()
            | Error n -> failwith (Printf.sprintf "grid capped at %d" n)) } ]

let workload_names = List.map (fun w -> w.name) workloads

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "perfdb: unknown kernel %S; available: %s\n" name
      (String.concat ", " workload_names);
    exit 2

(* ------------------------------------------------------------------ *)
(* perfdb-exec KERNEL: the subprocess cachegrind measures.  The whole
   process (startup, prepare, one run) is simulated — the same recipe
   as ci_bench, and deterministic as long as the workload is. *)

let exec = function
  | [ name ] ->
    let w = find_workload name in
    (w.prepare ()) ()
  | _ ->
    prerr_endline "usage: main.exe perfdb-exec KERNEL";
    exit 2

(* ------------------------------------------------------------------ *)
(* Measurement backends. *)

type scores = {
  instructions : int option;
  d1_misses : int option;
  ll_misses : int option;
  minor_words : int option;
  major_words : int option;
}

let measure_alloc w =
  let run = w.prepare () in
  (* Warmup run: sizes hash tables, fills the Fox-Glynn memo, touches
     every lazy path — the measured run is the steady state. *)
  run ();
  (* [Gc.quick_stat] lags the domain-local allocation pointer on OCaml 5;
     [Gc.minor_words] is exact, and an explicit minor collection flushes
     the major-heap counters (blocks over 256 words — every sizeable
     [float array] — are allocated there directly). *)
  Gc.full_major ();
  let minor0 = Gc.minor_words () in
  let s0 = Gc.quick_stat () in
  run ();
  let minor1 = Gc.minor_words () in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  { instructions = None; d1_misses = None; ll_misses = None;
    minor_words = Some (int_of_float (minor1 -. minor0));
    major_words =
      Some (int_of_float (s1.Gc.major_words -. s0.Gc.major_words)) }

let command_succeeds cmd = Sys.command (cmd ^ " > /dev/null 2>&1") = 0
let valgrind_available () = command_succeeds "valgrind --version"

(* Parse the `events:` / `summary:` lines of a cachegrind output file
   into an association list, exactly as ci_bench does. *)
let parse_cachegrind_file path =
  let ic = open_in path in
  let events = ref [] and summary = ref [] in
  (try
     while true do
       let line = input_line ic in
       let strip prefix =
         String.trim
           (String.sub line (String.length prefix)
              (String.length line - String.length prefix))
       in
       if String.starts_with ~prefix:"events:" line then
         events := String.split_on_char ' ' (strip "events:")
       else if String.starts_with ~prefix:"summary:" line then
         summary := String.split_on_char ' ' (strip "summary:")
     done
   with End_of_file -> close_in ic);
  let keep = List.filter (fun s -> s <> "") in
  match (keep !events, keep !summary) with
  | [], _ | _, [] -> None
  | names, counts when List.length names = List.length counts ->
    Some (List.combine names (List.map int_of_string counts))
  | _ -> None

let measure_cachegrind w =
  (* PERFDB_KEEP_CACHEGRIND=dir keeps the raw cachegrind output files
     there (CI uploads them as artifacts for drill-down with cg_annotate);
     by default they are temp files removed after parsing. *)
  let keep_dir = Sys.getenv_opt "PERFDB_KEEP_CACHEGRIND" in
  let out =
    match keep_dir with
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Filename.concat dir ("cachegrind_" ^ w.name ^ ".out")
    | None -> Filename.temp_file "cachegrind_" ".out"
  in
  let self = Sys.executable_name in
  let tail =
    [ "valgrind"; "--tool=cachegrind" ]
    @ pinned_cache_flags
    @ [ "--cachegrind-out-file=" ^ out; self; "perfdb-exec"; w.name ]
  in
  let quoted args = String.concat " " (List.map Filename.quote args) in
  (* Disable ASLR via setarch -R when available so the simulated cache
     sees the same addresses every run; fall back to bare valgrind. *)
  let with_setarch =
    Printf.sprintf "setarch \"$(uname -m)\" -R %s > /dev/null 2>&1"
      (quoted tail)
  in
  let without = quoted tail ^ " > /dev/null 2>&1" in
  let status =
    if Sys.command with_setarch = 0 then 0 else Sys.command without
  in
  if status <> 0 then begin
    Printf.eprintf "perfdb: cachegrind run failed for %s (exit %d)\n" w.name
      status;
    exit 1
  end;
  let counters =
    match parse_cachegrind_file out with
    | Some kv -> kv
    | None ->
      Printf.eprintf "perfdb: could not parse cachegrind output for %s\n"
        w.name;
      exit 1
  in
  if keep_dir = None then Sys.remove out;
  let count name = List.assoc_opt name counters in
  let sum names =
    List.fold_left
      (fun acc n ->
        match (acc, count n) with
        | Some a, Some v -> Some (a + v)
        | _ -> None)
      (Some 0) names
  in
  { instructions = count "Ir";
    d1_misses = sum [ "D1mr"; "D1mw" ];
    ll_misses = sum [ "ILmr"; "DLmr"; "DLmw" ];
    minor_words = None;
    major_words = None }

(* ------------------------------------------------------------------ *)
(* CSV append. *)

let append_row path row =
  let fresh = not (Sys.file_exists path) in
  (match Filename.dirname path with
   | "" | "." -> ()
   | dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  if fresh then output_string oc (Io.Csv.line csv_header);
  output_string oc (Io.Csv.line row);
  close_out oc

let default_commit () =
  match Sys.getenv_opt "PERFDB_COMMIT" with
  | Some c when c <> "" -> c
  | _ ->
    let tmp = Filename.temp_file "perfdb_" ".commit" in
    let status =
      Sys.command ("git rev-parse --short HEAD > " ^ Filename.quote tmp
                   ^ " 2>/dev/null")
    in
    let commit =
      if status = 0 then begin
        let ic = open_in tmp in
        let line = try input_line ic with End_of_file -> "" in
        close_in ic;
        line
      end
      else ""
    in
    Sys.remove tmp;
    if commit = "" then "unknown" else commit

(* ------------------------------------------------------------------ *)

let main args =
  let out = ref "perf/perfdb.csv" in
  let backend = ref "auto" in
  let note = ref "" in
  let commit = ref "" in
  let kernels = ref [] in
  let usage () =
    prerr_endline
      "usage: main.exe perfdb [--out FILE] [--backend auto|cachegrind|alloc]\n\
      \                       [--commit ID] [--note TEXT] [KERNEL ...]";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--out" :: v :: rest -> out := v; parse rest
    | "--backend" :: v :: rest -> backend := v; parse rest
    | "--note" :: v :: rest -> note := v; parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | ("--out" | "--backend" | "--note" | "--commit") :: [] -> usage ()
    | arg :: _ when String.starts_with ~prefix:"--" arg -> usage ()
    | name :: rest -> kernels := name :: !kernels; parse rest
  in
  parse args;
  let backend =
    match !backend with
    | "cachegrind" ->
      if not (valgrind_available ()) then begin
        prerr_endline "perfdb: --backend cachegrind but valgrind is not on PATH";
        exit 1
      end;
      `Cachegrind
    | "alloc" -> `Alloc
    | "auto" -> if valgrind_available () then `Cachegrind else `Alloc
    | other ->
      Printf.eprintf "perfdb: unknown backend %S\n" other;
      usage ()
  in
  let commit = if !commit = "" then default_commit () else !commit in
  let selected =
    match List.rev !kernels with
    | [] -> workloads
    | names -> List.map find_workload names
  in
  Printf.printf "perfdb: backend %s, commit %s -> %s\n"
    (match backend with `Cachegrind -> "cachegrind" | `Alloc -> "alloc")
    commit !out;
  List.iter
    (fun w ->
      let s =
        match backend with
        | `Cachegrind -> measure_cachegrind w
        | `Alloc -> measure_alloc w
      in
      let cell = function Some v -> string_of_int v | None -> "" in
      let backend_name =
        match backend with `Cachegrind -> "cachegrind" | `Alloc -> "alloc"
      in
      Printf.printf
        "  %-14s Ir %-12s D1 %-10s LL %-9s minor %-11s major %s\n" w.name
        (cell s.instructions) (cell s.d1_misses) (cell s.ll_misses)
        (cell s.minor_words) (cell s.major_words);
      append_row !out
        [ commit; w.name; backend_name; cell s.instructions;
          cell s.d1_misses; cell s.ll_misses; cell s.minor_words;
          cell s.major_words; !note ])
    selected;
  Printf.printf "appended %d row(s) to %s\n" (List.length selected) !out
