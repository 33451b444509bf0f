(* Closure compilation of an elaborated program to the successor-
   function interface.  Expressions become OCaml closures over the
   [int array] valuation; commands become a successor function that
   filters by guard, evaluates rates, applies updates with bounds
   checks, and merges duplicate targets (PRISM rate semantics: parallel
   transitions to the same state add up).  Self-loops are dropped — they
   do not change occupancy and the windowed engine handles diagonal mass
   through the exit rate. *)

exception Runtime_error of string

let fail_runtime pos fmt =
  Printf.ksprintf
    (fun m ->
      raise
        (Runtime_error (Printf.sprintf "%d:%d: %s" pos.Ast.line pos.Ast.col m)))
    fmt

open Typecheck

let rec ieval (e : texpr) : int array -> int =
  match e.desc with
  | TInt v -> fun _ -> v
  | TVar i -> fun s -> s.(i)
  | TNeg a ->
    let a = ieval a in
    fun s -> -a s
  | TArith (op, a, b) -> (
    let a = ieval a and b = ieval b in
    match op with
    | Ast.Add -> fun s -> a s + b s
    | Ast.Sub -> fun s -> a s - b s
    | Ast.Mul -> fun s -> a s * b s
    | _ -> assert false)
  | TMinMax (is_min, a, b) ->
    let a = ieval a and b = ieval b in
    if is_min then fun s -> min (a s) (b s) else fun s -> max (a s) (b s)
  | TFloat _ | TDiv _ | TBool _ | TNot _ | TCmp _ | TBoolop _ ->
    assert false (* ill-typed: the checker only lets int exprs reach here *)

let rec feval (e : texpr) : int array -> float =
  if e.ty = Tint then
    let f = ieval e in
    fun s -> float_of_int (f s)
  else
    match e.desc with
    | TFloat v -> fun _ -> v
    | TNeg a ->
      let a = feval a in
      fun s -> -.(a s)
    | TArith (op, a, b) -> (
      let a = feval a and b = feval b in
      match op with
      | Ast.Add -> fun s -> a s +. b s
      | Ast.Sub -> fun s -> a s -. b s
      | Ast.Mul -> fun s -> a s *. b s
      | _ -> assert false)
    | TDiv (a, b) ->
      let a = feval a and b = feval b in
      fun s -> a s /. b s
    | TMinMax (is_min, a, b) ->
      let a = feval a and b = feval b in
      if is_min then fun s -> Float.min (a s) (b s)
      else fun s -> Float.max (a s) (b s)
    | TInt _ | TVar _ | TBool _ | TNot _ | TCmp _ | TBoolop _ -> assert false

let rec beval (e : texpr) : int array -> bool =
  match e.desc with
  | TBool v -> fun _ -> v
  | TNot a ->
    let a = beval a in
    fun s -> not (a s)
  | TCmp (op, a, b) when a.ty = Tbool ->
    let a = beval a and b = beval b in
    if op = Ast.Eq then fun s -> a s = b s else fun s -> a s <> b s
  | TCmp (op, a, b) ->
    if a.ty = Tint && b.ty = Tint then (
      let a = ieval a and b = ieval b in
      match op with
      | Ast.Eq -> fun s -> a s = b s
      | Ast.Ne -> fun s -> a s <> b s
      | Ast.Lt -> fun s -> a s < b s
      | Ast.Le -> fun s -> a s <= b s
      | Ast.Gt -> fun s -> a s > b s
      | Ast.Ge -> fun s -> a s >= b s
      | _ -> assert false)
    else (
      let a = feval a and b = feval b in
      match op with
      | Ast.Eq -> fun s -> a s = b s
      | Ast.Ne -> fun s -> a s <> b s
      | Ast.Lt -> fun s -> a s < b s
      | Ast.Le -> fun s -> a s <= b s
      | Ast.Gt -> fun s -> a s > b s
      | Ast.Ge -> fun s -> a s >= b s
      | _ -> assert false)
  | TBoolop (op, a, b) -> (
    let a = beval a and b = beval b in
    match op with
    | Ast.And -> fun s -> a s && b s
    | Ast.Or -> fun s -> a s || b s
    | Ast.Implies -> fun s -> (not (a s)) || b s
    | _ -> assert false)
  | TInt _ | TFloat _ | TVar _ | TNeg _ | TArith _ | TDiv _ | TMinMax _ ->
    assert false

type assign = {
  idx : int;
  vpos : Ast.pos;
  value : int array -> int;
  var : var;
}

type choice = {
  rate_pos : Ast.pos;
  rate : int array -> float;
  assigns : assign array;
}

let compile (p : program) : Explore.Succ.t =
  let n_vars = Array.length p.vars in
  let var_names = Array.map (fun v -> v.name) p.vars in
  let describe s =
    String.concat ","
      (List.init n_vars (fun i -> Printf.sprintf "%s=%d" var_names.(i) s.(i)))
  in
  let initial = Array.map (fun v -> v.init) p.vars in
  let commands =
    Array.of_list
      (List.map
         (fun c ->
           let choice (rate, assigns) =
             let assign (idx, value) =
               { idx; vpos = value.pos; value = ieval value; var = p.vars.(idx) }
             in
             { rate_pos = rate.pos; rate = feval rate;
               assigns = Array.of_list (List.map assign assigns) }
           in
           (beval c.guard, Array.of_list (List.map choice c.choices)))
         p.commands)
  in
  let successors s (buf : Explore.Succ.buffer) =
    (* Each candidate target is built in place in the buffer's next row;
       [Succ.add] drops it as a self-loop, merges it into an equal
       earlier row (first-seen order), or keeps it. *)
    buf.count <- 0;
    for i = 0 to Array.length commands - 1 do
      let guard, choices = commands.(i) in
      if guard s then
        for j = 0 to Array.length choices - 1 do
          let c = choices.(j) in
          let r = c.rate s in
          if r <> 0.0 then begin
            if not (r > 0.0 && Float.is_finite r) then
              fail_runtime c.rate_pos
                "transition rate evaluates to %g in state %s" r (describe s);
            let off = Explore.Succ.candidate buf in
            let cells = buf.targets in
            Array.blit s 0 cells off n_vars;
            for k = 0 to Array.length c.assigns - 1 do
              let { idx; vpos; value; var } = c.assigns.(k) in
              let v = value s in
              if v < var.lo || v > var.hi then
                fail_runtime vpos
                  "update sets %s=%d outside [%d..%d] in state %s" var.name v
                  var.lo var.hi (describe s);
              cells.(off + idx) <- v
            done;
            Explore.Succ.add buf s r
          end
        done
    done
  in
  let reward_items =
    Array.of_list
      (List.map (fun (g, v) -> (v.pos, beval g, feval v)) p.reward_items)
  in
  let reward s =
    let acc = ref 0.0 in
    for i = 0 to Array.length reward_items - 1 do
      let vpos, guard, value = reward_items.(i) in
      if guard s then begin
        let v = value s in
        if not (v >= 0.0 && Float.is_finite v) then
          fail_runtime vpos "reward evaluates to %g in state %s" v
            (describe s);
        acc := !acc +. v
      end
    done;
    !acc
  in
  let labels = List.map (fun (name, f) -> (name, beval f)) p.labels in
  let holds s a =
    match List.assoc_opt a labels with
    | Some f -> f s
    | None -> raise (Markov.Labeling.Unknown_proposition a)
  in
  { Explore.Succ.var_names; initial; successors; reward;
    propositions = List.map fst p.labels; holds }
