type t = {
  left : int;
  right : int;
  weights : float array;
  total : float;
}

(* Mass of the right tail beyond [n] (exclusive) is bounded by a geometric
   series: pmf(n+1) / (1 - q/(n+2)) once n+2 > q. *)
let right_tail_bound ~q ~n ~pmf_next =
  let ratio = q /. float_of_int (n + 2) in
  if ratio >= 1.0 then Float.infinity else pmf_next /. (1.0 -. ratio)

let compute_fresh ~q ~epsilon =
  if q = 0.0 then { left = 0; right = 0; weights = [| 1.0 |]; total = 1.0 }
  else begin
    let mode = int_of_float q in
    let p_mode = Poisson.pmf ~lambda:q mode in
    (* Left cut: walk down from the mode; once the remaining mass below the
       current index provably fits in epsilon/2 we stop.  Below the mode the
       pmf decreases as n decreases, so the tail below n is at most
       n * pmf(n). *)
    let rec find_left n p acc =
      if n = 0 then (0, acc)
      else if float_of_int n *. p <= epsilon /. 2.0 then (n, acc)
      else begin
        let p' = p *. float_of_int n /. q in
        find_left (n - 1) p' ((n - 1, p') :: acc)
      end
    in
    (* [low] lists (n, pmf n) from the left cut up to the mode - 1. *)
    let left, low_pairs = find_left mode p_mode [] in
    (* Right cut: extend from the mode until the geometric tail bound fits
       in epsilon/2. *)
    let rec find_right n p acc =
      let p_next = p *. q /. float_of_int (n + 1) in
      if right_tail_bound ~q ~n ~pmf_next:p_next <= epsilon /. 2.0 then
        (n, List.rev acc)
      else find_right (n + 1) p_next ((n + 1, p_next) :: acc)
    in
    let right, high_pairs = find_right mode p_mode [] in
    let weights = Array.make (right - left + 1) 0.0 in
    List.iter (fun (n, p) -> weights.(n - left) <- p) low_pairs;
    weights.(mode - left) <- p_mode;
    List.iter (fun (n, p) -> weights.(n - left) <- p) high_pairs;
    let total = Kahan.sum_array weights in
    { left; right; weights; total }
  end

(* ------------------------------------------------------------------ *)
(* Cross-call memoisation.  Repeated checking workloads (batches of
   queries over one model, the Erlang expansion's inner solves, bench
   sweeps) ask for the same window over and over: the key (q, epsilon)
   — [q] is already [lambda * t] at every call site — determines the
   result completely, and [compute_fresh] is pure, so handing back the
   previously computed window is bit-identical to recomputing it.  The
   window is immutable by contract (the [t] record is private and every
   consumer only reads it), so sharing one array across callers — and
   across pool domains, hence the mutex — is safe. *)

type cache_counters = Memo.counters = { lookups : int; hits : int; misses : int }

(* Windows are a few kB each; at most 64 are retained and a full table
   is simply dropped. *)
let cache_lock = Mutex.create ()
let cache : (float * float, t) Memo.t = Memo.create ~capacity:64 64

let cache_counters () = Mutex.protect cache_lock (fun () -> Memo.counters cache)
let cache_clear () = Mutex.protect cache_lock (fun () -> Memo.clear cache)

let compute ~q ~epsilon =
  if q < 0.0 then invalid_arg "Fox_glynn.compute: negative q";
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Fox_glynn.compute: epsilon outside (0,1)";
  Memo.find_or_compute cache_lock cache (q, epsilon) (fun () ->
      compute_fresh ~q ~epsilon)

(* Telemetry only reads a finished window, so recording cannot perturb
   the numerics; callers invoke it right after [compute]. *)
let record telemetry w =
  Telemetry.add telemetry "fox_glynn.calls" 1;
  Telemetry.record telemetry "fox_glynn.left" (float_of_int w.left);
  Telemetry.record telemetry "fox_glynn.right" (float_of_int w.right);
  Telemetry.record telemetry "fox_glynn.weight_mass" w.total

let weight w n =
  if n < w.left || n > w.right then 0.0 else w.weights.(n - w.left)

let fold w ~init ~f =
  let state = ref init in
  for n = w.left to w.right do
    state := f !state n w.weights.(n - w.left)
  done;
  !state
