(* Reference oracle for the array-backed Graph library: the earlier
   list-and-Hashtbl digraph (successors kept reversed, one Hashtbl entry
   per edge) and the reachability and Tarjan code that ran over it, kept
   verbatim so the property tests in test_graph.ml can compare the
   current code against it on random graphs. *)

module Digraph = struct
  type t = {
    n : int;
    succ : int list array;      (* reversed insertion order *)
    seen : (int * int, unit) Hashtbl.t;
  }

  let create n = { n; succ = Array.make n []; seen = Hashtbl.create (4 * (n + 1)) }

  let n_vertices g = g.n

  let add_edge g u v =
    if u < 0 || u >= g.n || v < 0 || v >= g.n then
      invalid_arg "Digraph: vertex out of range";
    if not (Hashtbl.mem g.seen (u, v)) then begin
      Hashtbl.add g.seen (u, v) ();
      g.succ.(u) <- v :: g.succ.(u)
    end

  let of_edges n edges =
    let g = create n in
    List.iter (fun (u, v) -> add_edge g u v) edges;
    g

  let of_csr m =
    let g = create (Linalg.Csr.rows m) in
    Linalg.Csr.iter m (fun i j v -> if v <> 0.0 then add_edge g i j);
    g

  let successors g u = List.rev g.succ.(u)

  let iter_succ g u f = List.iter f (successors g u)

  let reverse g =
    let r = create g.n in
    for u = 0 to g.n - 1 do
      List.iter (fun v -> add_edge r v u) g.succ.(u)
    done;
    r
end

module Reach = struct
  let forward g sources =
    let n = Digraph.n_vertices g in
    let marked = Array.make n false in
    let queue = Queue.create () in
    List.iter
      (fun v ->
        if not marked.(v) then begin
          marked.(v) <- true;
          Queue.add v queue
        end)
      sources;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Digraph.iter_succ g v (fun w ->
          if not marked.(w) then begin
            marked.(w) <- true;
            Queue.add w queue
          end)
    done;
    marked

  let backward g targets = forward (Digraph.reverse g) targets

  let backward_constrained g ~through ~targets =
    let n = Digraph.n_vertices g in
    let rev = Digraph.reverse g in
    let marked = Array.make n false in
    let queue = Queue.create () in
    for v = 0 to n - 1 do
      if targets.(v) then begin
        marked.(v) <- true;
        Queue.add v queue
      end
    done;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Digraph.iter_succ rev v (fun w ->
          if (not marked.(w)) && through.(w) && not targets.(w) then begin
            marked.(w) <- true;
            Queue.add w queue
          end)
    done;
    marked
end

module Scc = struct
  let compute g =
    let n = Digraph.n_vertices g in
    let index = Array.make n (-1) in
    let lowlink = Array.make n 0 in
    let on_stack = Array.make n false in
    let stack = ref [] in
    let next_index = ref 0 in
    let component = Array.make n (-1) in
    let comp_members = ref [] in
    let comp_count = ref 0 in
    let visit root =
      let frames = ref [ (root, Digraph.successors g root) ] in
      index.(root) <- !next_index;
      lowlink.(root) <- !next_index;
      incr next_index;
      stack := root :: !stack;
      on_stack.(root) <- true;
      while !frames <> [] do
        match !frames with
        | [] -> ()
        | (v, succs) :: rest -> begin
            match succs with
            | w :: more ->
              frames := (v, more) :: rest;
              if index.(w) = -1 then begin
                index.(w) <- !next_index;
                lowlink.(w) <- !next_index;
                incr next_index;
                stack := w :: !stack;
                on_stack.(w) <- true;
                frames := (w, Digraph.successors g w) :: !frames
              end
              else if on_stack.(w) then
                lowlink.(v) <- Stdlib.min lowlink.(v) index.(w)
            | [] ->
              frames := rest;
              (match rest with
               | (parent, _) :: _ ->
                 lowlink.(parent) <- Stdlib.min lowlink.(parent) lowlink.(v)
               | [] -> ());
              if lowlink.(v) = index.(v) then begin
                let members = ref [] in
                let continue = ref true in
                while !continue do
                  match !stack with
                  | [] -> assert false
                  | w :: tail ->
                    stack := tail;
                    on_stack.(w) <- false;
                    component.(w) <- !comp_count;
                    members := w :: !members;
                    if w = v then continue := false
                done;
                comp_members := !members :: !comp_members;
                incr comp_count
              end
          end
      done
    in
    for v = 0 to n - 1 do
      if index.(v) = -1 then visit v
    done;
    let members = Array.make !comp_count [] in
    List.iteri
      (fun k ms -> members.(!comp_count - 1 - k) <- ms)
      !comp_members;
    (!comp_count, component, members)
end
