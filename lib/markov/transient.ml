let check_init c init =
  if Linalg.Vec.length init <> Ctmc.n_states c then
    invalid_arg "Transient: init has the wrong length";
  if not (Linalg.Vec.is_distribution ~tol:1e-9 init) then
    invalid_arg "Transient: init is not a probability distribution"

(* Shared Poisson-weighted series sum_n w_n v_n with v_{n+1} = step v_n.
   [stationary_detection] is the standard uniformisation shortcut: once an
   iterate stops moving (L-infinity change below the threshold), all later
   iterates are treated as equal and the remaining Poisson mass is applied
   in one go.  A heuristic (as in other probabilistic model checkers): the
   iteration map is non-expansive, so a tiny single-step movement signals
   (but does not prove) stationarity; thresholds well below the accuracy
   target make the error negligible in practice. *)
let series ?stationary_detection ?telemetry ?cancel ~epsilon ~q ~start ~step
    () =
  let n = Linalg.Vec.length start in
  let fg = Numerics.Fox_glynn.compute ~q ~epsilon in
  Numerics.Fox_glynn.record telemetry fg;
  Telemetry.record telemetry "uniformisation.q" q;
  let result = Linalg.Vec.create n in
  let v = ref (Linalg.Vec.copy start) in
  let scratch = ref (Linalg.Vec.create n) in
  let consumed = ref 0.0 in
  let finished = ref false in
  let index = ref 0 in
  while not !finished do
    Numerics.Cancel.check cancel;
    let w = Numerics.Fox_glynn.weight fg !index in
    if w > 0.0 then begin
      Linalg.Vec.axpy ~alpha:w ~x:!v ~y:result;
      consumed := !consumed +. w
    end;
    if !index >= fg.Numerics.Fox_glynn.right then finished := true
    else begin
      step !v !scratch;
      (match stationary_detection with
       | Some threshold when Linalg.Vec.linf_dist !v !scratch <= threshold ->
         (* Stationary: flush the remaining Poisson mass at once. *)
         let remaining = Float.max 0.0 (fg.Numerics.Fox_glynn.total -. !consumed) in
         Linalg.Vec.axpy ~alpha:remaining ~x:!scratch ~y:result;
         Telemetry.add telemetry "uniformisation.stationary_cutoffs" 1;
         finished := true
       | _ -> ());
      let tmp = !v in
      v := !scratch;
      scratch := tmp;
      incr index
    end
  done;
  Telemetry.add telemetry "uniformisation.iterations" !index;
  result

let distribution ?(epsilon = 1e-12) ?rate ?stationary_detection ?pool
    ?telemetry ?cancel c ~init ~t =
  check_init c init;
  if t < 0.0 then invalid_arg "Transient.distribution: negative time";
  if t = 0.0 then Linalg.Vec.copy init
  else begin
    let lambda, p = Ctmc.uniformized ?rate c in
    Telemetry.record telemetry "uniformisation.rate" lambda;
    series ?stationary_detection ?telemetry ?cancel ~epsilon
      ~q:(lambda *. t) ~start:init
      ~step:(fun v out -> Linalg.Csr.vec_mul_into ?pool v p out)
      ()
  end

let distribution_many ?epsilon ?rate ?pool ?telemetry ?cancel c ~init ~times
    =
  List.map
    (fun t ->
      (t, distribution ?epsilon ?rate ?pool ?telemetry ?cancel c ~init ~t))
    times

let reachability ?epsilon ?stationary_detection ?pool ?telemetry ?cancel c
    ~init ~goal ~t =
  if Array.length goal <> Ctmc.n_states c then
    invalid_arg "Transient.reachability: goal has the wrong length";
  let pi =
    distribution ?epsilon ?stationary_detection ?pool ?telemetry ?cancel c
      ~init ~t
  in
  Numerics.Float_utils.clamp_prob (Linalg.Vec.masked_sum pi goal)

let backward ?(epsilon = 1e-12) ?rate ?stationary_detection ?pool ?telemetry
    ?cancel c ~terminal ~t =
  if Linalg.Vec.length terminal <> Ctmc.n_states c then
    invalid_arg "Transient.backward: terminal vector has the wrong length";
  if t < 0.0 then invalid_arg "Transient.backward: negative time";
  if t = 0.0 then Linalg.Vec.copy terminal
  else begin
    let lambda, p = Ctmc.uniformized ?rate c in
    Telemetry.record telemetry "uniformisation.rate" lambda;
    series ?stationary_detection ?telemetry ?cancel ~epsilon
      ~q:(lambda *. t) ~start:terminal
      ~step:(fun v out -> Linalg.Csr.mul_vec_into ?pool p v out)
      ()
  end

let reachability_all ?epsilon ?rate ?stationary_detection ?pool ?telemetry
    ?cancel c ~goal ~t =
  if Array.length goal <> Ctmc.n_states c then
    invalid_arg "Transient.reachability_all: goal has the wrong length";
  let terminal =
    Linalg.Vec.init (Array.length goal) (fun i -> if goal.(i) then 1.0 else 0.0)
  in
  Linalg.Vec.map Numerics.Float_utils.clamp_prob
    (backward ?epsilon ?rate ?stationary_detection ?pool ?telemetry ?cancel c
       ~terminal ~t)
