type comparison = Lt | Le | Gt | Ge

type state_formula =
  | True
  | False
  | Ap of string
  | Not of state_formula
  | And of state_formula * state_formula
  | Or of state_formula * state_formula
  | Implies of state_formula * state_formula
  | Prob of comparison * float * path_formula
  | Steady of comparison * float * state_formula
  | Reward of comparison * float * reward_query

and path_formula =
  | Next of Numerics.Time_interval.t * Numerics.Time_interval.t * state_formula
  | Until of
      Numerics.Time_interval.t
      * Numerics.Time_interval.t
      * state_formula
      * state_formula

and reward_query =
  | Cumulative of float
  | Reach of state_formula
  | Long_run

type query =
  | Formula of state_formula
  | Prob_query of path_formula
  | Steady_query of state_formula
  | Reward_query of reward_query
  | Frontier_query of { points : int; target : float; path : path_formula }

let eventually ?(time = Numerics.Time_interval.unbounded)
    ?(reward = Numerics.Time_interval.unbounded) phi =
  Until (time, reward, True, phi)

let negate_comparison = function Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt

let dual_comparison = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le

let always ?time ?reward (cmp, p) phi =
  Prob (dual_comparison cmp, 1.0 -. p, eventually ?time ?reward (Not phi))

let compare_holds cmp p q =
  match cmp with Lt -> q < p | Le -> q <= p | Gt -> q > p | Ge -> q >= p

let atomic_propositions phi =
  let module StringSet = Set.Make (String) in
  let rec state acc = function
    | True | False -> acc
    | Ap a -> StringSet.add a acc
    | Not f -> state acc f
    | And (f, g) | Or (f, g) | Implies (f, g) -> state (state acc f) g
    | Prob (_, _, path_f) -> path acc path_f
    | Steady (_, _, f) -> state acc f
    | Reward (_, _, q) -> reward acc q
  and path acc = function
    | Next (_, _, f) -> state acc f
    | Until (_, _, f, g) -> state (state acc f) g
  and reward acc = function
    | Cumulative _ | Long_run -> acc
    | Reach f -> state acc f
  in
  StringSet.elements (state StringSet.empty phi)

let size phi =
  let rec state = function
    | True | False | Ap _ -> 1
    | Not f | Steady (_, _, f) -> 1 + state f
    | And (f, g) | Or (f, g) | Implies (f, g) -> 1 + state f + state g
    | Prob (_, _, p) -> 1 + path p
    | Reward (_, _, q) -> 1 + reward q
  and path = function
    | Next (_, _, f) -> 1 + state f
    | Until (_, _, f, g) -> 1 + state f + state g
  and reward = function
    | Cumulative _ | Long_run -> 1
    | Reach f -> 1 + state f
  in
  state phi

let rec equal f g =
  match f, g with
  | True, True | False, False -> true
  | Ap a, Ap b -> String.equal a b
  | Not f1, Not g1 -> equal f1 g1
  | And (f1, f2), And (g1, g2)
  | Or (f1, f2), Or (g1, g2)
  | Implies (f1, f2), Implies (g1, g2) -> equal f1 g1 && equal f2 g2
  | Prob (c1, p1, h1), Prob (c2, p2, h2) ->
    c1 = c2 && p1 = p2 && equal_path h1 h2
  | Steady (c1, p1, f1), Steady (c2, p2, g1) ->
    c1 = c2 && p1 = p2 && equal f1 g1
  | Reward (c1, p1, q1), Reward (c2, p2, q2) ->
    c1 = c2 && p1 = p2 && equal_reward q1 q2
  | ( (True | False | Ap _ | Not _ | And _ | Or _ | Implies _ | Prob _
      | Steady _ | Reward _),
      _ ) -> false

and equal_path h k =
  match h, k with
  | Next (i1, j1, f1), Next (i2, j2, f2) ->
    Numerics.Time_interval.equal i1 i2 && Numerics.Time_interval.equal j1 j2
    && equal f1 f2
  | Until (i1, j1, f1, g1), Until (i2, j2, f2, g2) ->
    Numerics.Time_interval.equal i1 i2 && Numerics.Time_interval.equal j1 j2
    && equal f1 f2 && equal g1 g2
  | (Next _ | Until _), _ -> false

and equal_reward q1 q2 =
  match q1, q2 with
  | Cumulative a, Cumulative b -> a = b
  | Reach f, Reach g -> equal f g
  | Long_run, Long_run -> true
  | (Cumulative _ | Reach _ | Long_run), _ -> false

let pp_comparison ppf cmp =
  Format.pp_print_string ppf
    (match cmp with Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=")

(* The shortest of %g, %.15g, %.16g and %.17g that reads back as the
   same float: an echoed query is the query that was checked. *)
let pp_float ppf x =
  let render digits = Printf.sprintf "%.*g" digits x in
  let exact digits = float_of_string (render digits) = x in
  Format.pp_print_string ppf
    (render
       (Option.value ~default:17 (List.find_opt exact [ 6; 15; 16 ])))

(* Bounds render as "[t>=a][t<=b]" / "[r<=600]"; an unbounded interval
   renders as nothing, matching the paper's convention of omitting
   vacuous bounds. *)
let pp_bounds ppf (time, reward) =
  let one prefix interval =
    let lo = Numerics.Time_interval.lower interval in
    if lo > 0.0 then Format.fprintf ppf "[%s>=%a]" prefix pp_float lo;
    match Numerics.Time_interval.upper interval with
    | Some b -> Format.fprintf ppf "[%s<=%a]" prefix pp_float b
    | None -> ()
  in
  one "t" time;
  one "r" reward

(* Precedence levels: 0 = implies (right assoc), 1 = or, 2 = and,
   3 = unary/atomic. *)
let rec pp_prec level ppf phi =
  let paren needed body =
    if needed then Format.fprintf ppf "(%t)" body else body ppf
  in
  match phi with
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Ap a -> Format.pp_print_string ppf a
  | Not f -> Format.fprintf ppf "!%a" (pp_prec 3) f
  | And (f, g) ->
    paren (level > 2) (fun ppf ->
        Format.fprintf ppf "%a & %a" (pp_prec 2) f (pp_prec 3) g)
  | Or (f, g) ->
    paren (level > 1) (fun ppf ->
        Format.fprintf ppf "%a | %a" (pp_prec 1) f (pp_prec 2) g)
  | Implies (f, g) ->
    paren (level > 0) (fun ppf ->
        Format.fprintf ppf "%a -> %a" (pp_prec 1) f (pp_prec 0) g)
  | Prob (cmp, p, path_f) ->
    Format.fprintf ppf "P%a%a (%a)" pp_comparison cmp pp_float p pp_path
      path_f
  | Steady (cmp, p, f) ->
    Format.fprintf ppf "S%a%a (%a)" pp_comparison cmp pp_float p (pp_prec 0)
      f
  | Reward (cmp, c, q) ->
    Format.fprintf ppf "R%a%a (%a)" pp_comparison cmp pp_float c pp_reward q

and pp_reward ppf = function
  | Cumulative b -> Format.fprintf ppf "C[t<=%a]" pp_float b
  | Reach f -> Format.fprintf ppf "F %a" (pp_prec 3) f
  | Long_run -> Format.pp_print_string ppf "S"

and pp_path ppf = function
  | Next (i, j, f) ->
    Format.fprintf ppf "X%a %a" pp_bounds (i, j) (pp_prec 3) f
  | Until (i, j, True, g) ->
    Format.fprintf ppf "F%a %a" pp_bounds (i, j) (pp_prec 3) g
  | Until (i, j, f, g) ->
    Format.fprintf ppf "%a U%a %a" (pp_prec 3) f pp_bounds (i, j) (pp_prec 3)
      g

let pp = pp_prec 0

let pp_query ppf = function
  | Formula f -> pp ppf f
  | Prob_query p -> Format.fprintf ppf "P=? (%a)" pp_path p
  | Steady_query f -> Format.fprintf ppf "S=? (%a)" pp f
  | Reward_query q -> Format.fprintf ppf "R=? (%a)" pp_reward q
  | Frontier_query { points; target; path } ->
    Format.fprintf ppf "frontier[%d] P>=%a (%a)" points pp_float target
      pp_path path

let to_string phi = Format.asprintf "%a" pp phi
