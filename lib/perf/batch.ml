type counters = Numerics.Memo.counters = { lookups : int; hits : int; misses : int }

(* Mask pairs are compared structurally; the polymorphic hash only
   samples a prefix of long arrays, which is fine — equality does the
   full comparison and the table stays small (one entry per distinct
   subformula pair of the batch). *)
type t = {
  lock : Mutex.t;
  reduction_tbl : (bool array * bool array, Reduction.t) Numerics.Memo.t;
}

let create () =
  { lock = Mutex.create (); reduction_tbl = Numerics.Memo.create 16 }

let until_probabilities t ?telemetry ?pool solve_rows m ~phi ~psi ~time_bound
    ~reward_bound =
  (* Copy the key: callers recycle mask arrays, and a key mutated after
     insertion would corrupt the table. *)
  let r =
    Numerics.Memo.find_or_compute t.lock t.reduction_tbl
      (Array.copy phi, Array.copy psi)
      (fun () -> Reduction.prepare ?telemetry m ~phi ~psi)
  in
  Reduction.until_rows_on r ?pool ?telemetry solve_rows ~phi ~psi ~time_bound
    ~reward_bound

let counters t =
  Mutex.protect t.lock (fun () ->
      [ ("reduction", Numerics.Memo.counters t.reduction_tbl) ])
