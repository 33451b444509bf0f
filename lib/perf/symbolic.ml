exception Unsupported of string

(* States a window or a materialised twin may hold. *)
let limit = 1_000_000

let unsupported fmt = Printf.ksprintf (fun m -> raise (Unsupported m)) fmt

type answer = {
  value : float;
  delta : float;
  lower : float;
  upper : float;
  stats : Explore.Windowed.stats option;
  fallback : bool;
}

type outcome =
  | Boolean of bool
  | Numeric of answer

type t = {
  succ : Explore.Succ.t;
  space : Explore.Space.t;
  lock : Mutex.t;
  mutable explicit_twin : (Markov.Mrm.t * Markov.Labeling.t * int) option;
}

let create succ =
  { succ; space = Explore.Space.create succ; lock = Mutex.create ();
    explicit_twin = None }

let space t = t.space
let n_states t = Explore.Space.n_states t.space

let initial_labeling t =
  let initial = t.succ.Explore.Succ.initial in
  Markov.Labeling.make ~n:1
    (List.map
       (fun p -> (p, if t.succ.Explore.Succ.holds initial p then [ 0 ] else []))
       t.succ.Explore.Succ.propositions)

let materialise t =
  match t.explicit_twin with
  | Some twin -> Ok twin
  | None -> (
    match Explore.Materialise.materialise ~limit t.space with
    | Ok twin ->
      t.explicit_twin <- Some twin;
      Ok twin
    | Error _ as e -> e)

(* Compile a propositional state formula to a predicate on valuations;
   nested probabilistic operators have no per-state truth value here. *)
let rec predicate t (f : Logic.Ast.state_formula) : Explore.Succ.state -> bool =
  match f with
  | Logic.Ast.True -> fun _ -> true
  | Logic.Ast.False -> fun _ -> false
  | Logic.Ast.Ap a -> fun s -> t.succ.Explore.Succ.holds s a
  | Logic.Ast.Not f ->
    let f = predicate t f in
    fun s -> not (f s)
  | Logic.Ast.And (a, b) ->
    let a = predicate t a and b = predicate t b in
    fun s -> a s && b s
  | Logic.Ast.Or (a, b) ->
    let a = predicate t a and b = predicate t b in
    fun s -> a s || b s
  | Logic.Ast.Implies (a, b) ->
    let a = predicate t a and b = predicate t b in
    fun s -> (not (a s)) || b s
  | Logic.Ast.Prob _ | Logic.Ast.Steady _ | Logic.Ast.Reward _ ->
    unsupported
      "nested probabilistic operators on a successor-backed model (load the \
       explicit model instead)"

let time_bound_exn iv =
  if Numerics.Time_interval.lower iv > 0.0 then
    unsupported "lower time bounds on a successor-backed model";
  match Numerics.Time_interval.upper iv with
  | Some b -> b
  | None -> unsupported "unbounded until on a successor-backed model"

let reward_bound_exn iv =
  if Numerics.Time_interval.lower iv > 0.0 then
    unsupported "lower reward bounds on a successor-backed model";
  Numerics.Time_interval.upper iv

let exact value =
  { value; delta = 0.0; lower = value; upper = value; stats = None;
    fallback = false }

(* Theorem 1 on the materialised twin, for until queries whose reward
   bound is active inside the window. *)
let until_via_materialised ?telemetry ?cancel ~epsilon t ~phi ~psi ~time_bound
    ~reward_bound =
  match materialise t with
  | Error n ->
    unsupported
      "reward bound is active and the state space exceeds %d states, so the \
       explicit fallback cannot materialise it" n
  | Ok (mrm, _labeling, init) ->
    let n = Markov.Mrm.n_states mrm in
    let mask pred =
      Array.init n (fun id -> pred (Explore.Space.state t.space id))
    in
    let phi = mask phi and psi = mask psi in
    let red = Reduced.reduce mrm ~phi ~psi in
    let value =
      if psi.(init) then 1.0
      else if not phi.(init) then 0.0
      else
        let problem =
          Reduced.problem red
            ~init:(Linalg.Vec.unit n init)
            ~time_bound ~reward_bound
        in
        Engine.solve ?telemetry ?cancel (Engine.Occupation_time { epsilon })
          problem
    in
    let lower = Float.max 0.0 (value -. epsilon) in
    let upper = Float.min 1.0 (value +. epsilon) in
    { value; delta = epsilon; lower; upper; stats = None; fallback = true }

let until_locked ?telemetry ?cancel ~epsilon t time reward phi_f psi_f =
  let time_bound = time_bound_exn time in
  let reward_bound = reward_bound_exn reward in
  let phi = predicate t phi_f and psi = predicate t psi_f in
  let initial = t.succ.Explore.Succ.initial in
  if time_bound = 0.0 then exact (if psi initial then 1.0 else 0.0)
  else begin
    let classify s =
      if psi s then Explore.Windowed.Absorb { goal = true }
      else if phi s then Explore.Windowed.Transient { counts = false }
      else Explore.Windowed.Absorb { goal = false }
    in
    let guard_limit =
      Numerics.Cancel.create
        ~reason:(Printf.sprintf "window exceeded %d states" limit)
        (fun () -> Explore.Space.n_states t.space > limit)
    in
    let cancel =
      (* Respect both the caller's token and the window cap. *)
      match cancel with
      | None -> guard_limit
      | Some c ->
        Numerics.Cancel.create ~reason:"cancelled" (fun () ->
            Numerics.Cancel.cancelled c || Numerics.Cancel.cancelled guard_limit)
    in
    match
      Explore.Windowed.solve ?telemetry ~cancel ~epsilon ~classify
        ~init:[ (initial, 1.0) ] ~t:time_bound ~reward_bound t.space
    with
    | Explore.Windowed.Bounded r ->
      { value = r.Explore.Windowed.value; delta = r.Explore.Windowed.delta;
        lower = r.Explore.Windowed.lower; upper = r.Explore.Windowed.upper;
        stats = Some r.Explore.Windowed.stats; fallback = false }
    | Explore.Windowed.Reward_bound_active _ ->
      Telemetry.add telemetry "explore.reward_fallbacks" 1;
      let reward_bound =
        match reward_bound with Some r -> r | None -> assert false
      in
      until_via_materialised ?telemetry ~cancel ~epsilon t ~phi ~psi
        ~time_bound ~reward_bound
  end

(* The space and the explicit twin are mutable: one solve at a time. *)
let until ?telemetry ?cancel ~epsilon t time reward phi psi =
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Symbolic.until: epsilon must be in (0, 1)";
  Mutex.protect t.lock (fun () ->
      until_locked ?telemetry ?cancel ~epsilon t time reward phi psi)

let eval ?telemetry ?cancel ?(epsilon = 1e-9) t (query : Logic.Ast.query) =
  match query with
  | Logic.Ast.Prob_query (Logic.Ast.Until (time, reward, phi, psi)) ->
    Numeric (until ?telemetry ?cancel ~epsilon t time reward phi psi)
  | _ ->
    unsupported
      "a handle evaluates until probabilities; check other queries through \
       a program context (Checker.make_program)"
