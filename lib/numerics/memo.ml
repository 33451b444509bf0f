type counters = { lookups : int; hits : int; misses : int }

let hit_rate c =
  if c.lookups = 0 then 0.0
  else float_of_int c.hits /. float_of_int c.lookups

let diff after before =
  { lookups = after.lookups - before.lookups;
    hits = after.hits - before.hits;
    misses = after.misses - before.misses }

type ('k, 'v) t = {
  tbl : ('k, 'v) Hashtbl.t;
  capacity : int option;
  mutable n_lookups : int;
  mutable n_hits : int;
}

let create ?capacity n =
  { tbl = Hashtbl.create n; capacity; n_lookups = 0; n_hits = 0 }

let find_or_compute lock t key compute =
  Mutex.lock lock;
  t.n_lookups <- t.n_lookups + 1;
  match Hashtbl.find_opt t.tbl key with
  | Some v ->
    t.n_hits <- t.n_hits + 1;
    Mutex.unlock lock;
    v
  | None ->
    Mutex.unlock lock;
    let v = compute () in
    Mutex.lock lock;
    (match t.capacity with
     | Some c when Hashtbl.length t.tbl >= c -> Hashtbl.reset t.tbl
     | _ -> ());
    Hashtbl.replace t.tbl key v;
    Mutex.unlock lock;
    v

let counters t =
  { lookups = t.n_lookups; hits = t.n_hits; misses = t.n_lookups - t.n_hits }

let clear t =
  Hashtbl.reset t.tbl;
  t.n_lookups <- 0;
  t.n_hits <- 0
