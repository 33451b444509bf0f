exception Unsupported of string

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
  | Boolean of bool * answer option
  | Numeric of answer

type t = {
  succ : Explore.Succ.t;
  space : Explore.Space.t;
  memo : (string, outcome) Hashtbl.t;
  mutable explicit_twin : (Markov.Mrm.t * Markov.Labeling.t * int) option;
}

let create succ =
  { succ; space = Explore.Space.create succ; memo = Hashtbl.create 16;
    explicit_twin = None }

let space t = t.space
let n_states t = Explore.Space.n_states t.space
let memo_size t = Hashtbl.length t.memo

let materialise ~limit t =
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
let until_via_materialised ?telemetry ?cancel ~epsilon ~limit t ~phi ~psi
    ~time_bound ~reward_bound =
  match materialise ~limit t with
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

let until ?telemetry ?cancel ~epsilon ~limit t time reward phi_f psi_f =
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
      until_via_materialised ?telemetry ~cancel ~epsilon ~limit t ~phi ~psi
        ~time_bound ~reward_bound
  end

let path_probability ?telemetry ?cancel ~epsilon ~limit t
    (path : Logic.Ast.path_formula) =
  match path with
  | Logic.Ast.Until (time, reward, phi, psi) ->
    until ?telemetry ?cancel ~epsilon ~limit t time reward phi psi
  | Logic.Ast.Next _ ->
    unsupported "next on a successor-backed model (load the explicit model)"

let eval_uncached ?telemetry ?cancel ~epsilon ~limit t
    (query : Logic.Ast.query) =
  (* The explicit reduction pipeline has nothing to run on — record the
     bypass so downstream reports can tell. *)
  Telemetry.add telemetry "reduction.symbolic_bypass" 1;
  match query with
  | Logic.Ast.Prob_query path ->
    Numeric (path_probability ?telemetry ?cancel ~epsilon ~limit t path)
  | Logic.Ast.Formula (Logic.Ast.Prob (cmp, p, path)) ->
    let a = path_probability ?telemetry ?cancel ~epsilon ~limit t path in
    Boolean (Logic.Ast.compare_holds cmp p a.value, Some a)
  | Logic.Ast.Formula f ->
    let pred = predicate t f in
    Boolean (pred t.succ.Explore.Succ.initial, None)
  | Logic.Ast.Steady_query _ ->
    unsupported "steady-state on a successor-backed model"
  | Logic.Ast.Reward_query _ ->
    unsupported "expected-reward queries on a successor-backed model"
  | Logic.Ast.Frontier_query _ ->
    unsupported "frontier queries on a successor-backed model"

let eval ?telemetry ?cancel ?(epsilon = 1e-9) ?(limit = 1_000_000) t query =
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Symbolic.eval: epsilon must be in (0, 1)";
  let key = Format.asprintf "%a @@ %.17g" Logic.Ast.pp_query query epsilon in
  match Hashtbl.find_opt t.memo key with
  | Some outcome ->
    Telemetry.add telemetry "explore.memo_hits" 1;
    outcome
  | None ->
    let outcome = eval_uncached ?telemetry ?cancel ~epsilon ~limit t query in
    Hashtbl.add t.memo key outcome;
    outcome
