type counters = Numerics.Memo.counters = { lookups : int; hits : int; misses : int }

(* Mask pairs are compared structurally; the polymorphic hash only
   samples a prefix of long arrays, which is fine — equality does the
   full comparison and the tables stay small (one entry per distinct
   subformula pair of the batch). *)
type t = {
  lock : Mutex.t;
  reduced_tbl : (bool array * bool array, Reduced.t) Numerics.Memo.t;
  reduction_tbl : (bool array * bool array, Reduction.t) Numerics.Memo.t;
  until_tbl :
    (bool array * bool array * float * float, Linalg.Vec.t) Numerics.Memo.t;
}

let create () =
  { lock = Mutex.create ();
    reduced_tbl = Numerics.Memo.create 16;
    reduction_tbl = Numerics.Memo.create 16;
    until_tbl = Numerics.Memo.create 16 }

let reduced t m ~phi ~psi =
  (* Copy the keys: callers recycle mask arrays, and a key mutated after
     insertion would corrupt the table. *)
  Numerics.Memo.find_or_compute t.lock t.reduced_tbl
    (Array.copy phi, Array.copy psi)
    (fun () -> Reduced.reduce m ~phi ~psi)

let reduction t ?config ?telemetry m ~phi ~psi =
  (* Layered on the reduced-model cache: a reduction miss still reuses
     the cached Theorem 1 transform.  One batch only ever sees one
     pipeline config (it is part of the checker context, not the key). *)
  Numerics.Memo.find_or_compute t.lock t.reduction_tbl
    (Array.copy phi, Array.copy psi)
    (fun () -> Reduction.prepare_on ?config ?telemetry (reduced t m ~phi ~psi))

let until_probabilities t ?config ?telemetry ?pool solve_rows m ~phi ~psi
    ~time_bound ~reward_bound =
  let v =
    Numerics.Memo.find_or_compute t.lock t.until_tbl
      (Array.copy phi, Array.copy psi, time_bound, reward_bound)
      (fun () ->
        let r = reduction t ?config ?telemetry m ~phi ~psi in
        Reduction.until_rows_on r ?pool ?telemetry solve_rows ~phi ~psi
          ~time_bound ~reward_bound)
  in
  Linalg.Vec.copy v

let counters t =
  Mutex.protect t.lock (fun () ->
      [ ("reduced", Numerics.Memo.counters t.reduced_tbl);
        ("reduction", Numerics.Memo.counters t.reduction_tbl);
        ("until", Numerics.Memo.counters t.until_tbl) ])
