type payload =
  | Checked of { ctx : Checker.t; memo : Checker.memo; init : Linalg.Vec.t }
  | Symbolic of { path : string; sym : Perf.Symbolic.t }

type entry = {
  name : string;
  payload : payload;
  entry_lock : Mutex.t;
}

type t = {
  make_ctx : Markov.Mrm.t -> Markov.Labeling.t -> Checker.t;
  make_robust_ctx : Robust.Imrm.t -> Markov.Labeling.t -> Checker.t;
  table : (string, entry) Hashtbl.t;
  lock : Mutex.t;
}

let create ~make_ctx ~make_robust_ctx () =
  { make_ctx; make_robust_ctx; table = Hashtbl.create 8;
    lock = Mutex.create () }

let load t ~name ?builtin ?file ?drift ?imrm () =
  let source = Option.value builtin ~default:name in
  match Models.Source.resolve ?file ?drift ?imrm source with
  | Error _ as e -> e
  | Ok resolved ->
    let checked ctx init =
      Checked { ctx; memo = Checker.create_memo (); init }
    in
    let payload =
      match resolved with
      | Models.Source.Explicit { mrm; labeling; init } ->
        checked (t.make_ctx mrm labeling) init
      | Models.Source.Interval { imrm; labeling; init } ->
        checked (t.make_robust_ctx imrm labeling) init
      | Models.Source.Program { path; succ } ->
        Symbolic { path; sym = Perf.Symbolic.create succ }
    in
    let entry = { name; payload; entry_lock = Mutex.create () } in
    Mutex.protect t.lock (fun () -> Hashtbl.replace t.table name entry);
    Ok entry

let find t name = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table name)

let exclusively entry f = Mutex.protect entry.entry_lock f

let evict t name =
  Mutex.protect t.lock (fun () ->
      if Hashtbl.mem t.table name then begin
        Hashtbl.remove t.table name;
        true
      end
      else false)

let entries t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun _ e acc -> e :: acc) t.table [])
  |> List.sort (fun a b -> compare a.name b.name)
