type job = Run of (unit -> unit) | Stop

type t = {
  queues : job Admission.t array;
  domains : unit Domain.t array;
  lock : Mutex.t;
  mutable stopped : bool;
}

let worker queue () =
  let rec loop () =
    match Admission.pop queue with
    | Run f ->
      (* Jobs are total by construction (the service catches per-request
         failures and turns them into responses); a residual exception
         must not kill the domain and silently wedge its shard. *)
      (try f () with _ -> ());
      loop ()
    | Stop -> ()
  in
  loop ()

let create ~shards ~queue_bound =
  if shards < 1 then invalid_arg "Executor.create: shards must be >= 1";
  let queues = Array.init shards (fun _ -> Admission.create ~bound:queue_bound) in
  let domains = Array.map (fun q -> Domain.spawn (worker q)) queues in
  { queues; domains; lock = Mutex.create (); stopped = false }

let submit t ~shard f =
  if shard < 0 || shard >= Array.length t.queues then
    invalid_arg "Executor.submit: shard out of range";
  Admission.push_wait t.queues.(shard) (Run f)

let stop t =
  Mutex.protect t.lock (fun () ->
      if not t.stopped then begin
        t.stopped <- true;
        (* The stop marker queues behind pending jobs: each shard drains
           everything submitted before the stop, then its domain exits. *)
        Array.iter (fun q -> Admission.push_control q Stop) t.queues;
        Array.iter Domain.join t.domains
      end)
