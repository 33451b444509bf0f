type entry = {
  name : string;
  ctx : Checker.t;
  memo : Checker.memo;
  init : Linalg.Vec.t;
  entry_lock : Mutex.t;
}

type t = {
  engine : Perf.Engine.spec;
  context : Models.Source.t -> Checker.t * Linalg.Vec.t;
  table : (string, entry) Hashtbl.t;
  lock : Mutex.t;
}

let create ~engine ~epsilon ~pool ?telemetry () =
  { engine;
    context = Batch.context ~engine ~epsilon ~pool ?telemetry;
    table = Hashtbl.create 8;
    lock = Mutex.create () }

let load t ~name ?builtin ?file ?drift ?imrm () =
  let source = Option.value builtin ~default:name in
  match Models.Source.resolve ~engine:t.engine ?file ?drift ?imrm source with
  | Error _ as e -> e
  | Ok resolved ->
    let ctx, init = t.context resolved in
    let entry =
      { name; ctx; memo = Checker.create_memo (); init;
        entry_lock = Mutex.create () }
    in
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
