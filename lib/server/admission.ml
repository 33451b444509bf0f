type 'a t = {
  bound : int;
  items : 'a Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
}

let create ~bound =
  if bound < 1 then invalid_arg "Admission.create: bound must be >= 1";
  { bound; items = Queue.create (); lock = Mutex.create ();
    nonempty = Condition.create (); nonfull = Condition.create () }

let try_push q x =
  Mutex.protect q.lock (fun () ->
      if Queue.length q.items >= q.bound then false
      else begin
        Queue.push x q.items;
        Condition.signal q.nonempty;
        true
      end)

let push_wait q x =
  Mutex.protect q.lock (fun () ->
      while Queue.length q.items >= q.bound do
        Condition.wait q.nonfull q.lock
      done;
      Queue.push x q.items;
      Condition.signal q.nonempty)

let push_control q x =
  Mutex.protect q.lock (fun () ->
      Queue.push x q.items;
      Condition.signal q.nonempty)

let wait_nonempty q =
  while Queue.is_empty q.items do
    Condition.wait q.nonempty q.lock
  done

let peek q =
  Mutex.protect q.lock (fun () ->
      wait_nonempty q;
      Queue.peek q.items)

let pop q =
  Mutex.protect q.lock (fun () ->
      wait_nonempty q;
      let x = Queue.pop q.items in
      if Queue.length q.items < q.bound then Condition.signal q.nonfull;
      x)

let length q = Mutex.protect q.lock (fun () -> Queue.length q.items)
