(* Compressed successor lists: the successors of [u] are
   [targets.(offsets.(u)) .. targets.(offsets.(u + 1) - 1)], each once,
   in insertion order. *)
type t = {
  n : int;
  offsets : int array;  (* length n + 1 *)
  targets : int array;
}

let n_vertices g = g.n

let check_vertex n v =
  if v < 0 || v >= n then invalid_arg "Digraph: vertex out of range"

let of_edges n edges =
  if n < 0 then invalid_arg "Digraph.of_edges: negative size";
  List.iter
    (fun (u, v) ->
      check_vertex n u;
      check_vertex n v)
    edges;
  (* A stable counting sort by source keeps each source's edges in list
     order; the compaction then keeps the first copy of each. *)
  let offsets = Array.make (n + 1) 0 in
  List.iter (fun (u, _) -> offsets.(u + 1) <- offsets.(u + 1) + 1) edges;
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u + 1) + offsets.(u)
  done;
  let fill = Array.sub offsets 0 n in
  let targets = Array.make offsets.(n) 0 in
  List.iter
    (fun (u, v) ->
      targets.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1)
    edges;
  let seen_from = Array.make n (-1) in
  let write = ref 0 and start = ref 0 in
  for u = 0 to n - 1 do
    let stop = offsets.(u + 1) in
    offsets.(u) <- !write;
    for e = !start to stop - 1 do
      let v = targets.(e) in
      if seen_from.(v) <> u then begin
        seen_from.(v) <- u;
        targets.(!write) <- v;
        incr write
      end
    done;
    start := stop
  done;
  offsets.(n) <- !write;
  { n; offsets; targets = Array.sub targets 0 !write }

(* A CSR row's columns are unique and ascending, so the stored non-zero
   entries are the successor lists as they stand. *)
let of_csr m =
  if Linalg.Csr.rows m <> Linalg.Csr.cols m then
    invalid_arg "Digraph.of_csr: square matrix required";
  let n = Linalg.Csr.rows m in
  let rp = Linalg.Csr.row_pointers m and ci = Linalg.Csr.col_indices m in
  let values = Linalg.Csr.values m in
  let offsets = Array.make (n + 1) 0 in
  let targets = Array.make (Linalg.Csr.nnz m) 0 in
  let write = ref 0 in
  for i = 0 to n - 1 do
    offsets.(i) <- !write;
    for p = Int32.to_int rp.{i} to Int32.to_int rp.{i + 1} - 1 do
      if values.{p} <> 0.0 then begin
        targets.(!write) <- Int32.to_int ci.{p};
        incr write
      end
    done
  done;
  offsets.(n) <- !write;
  let targets =
    if !write = Array.length targets then targets
    else Array.sub targets 0 !write
  in
  { n; offsets; targets }

let successors g u =
  check_vertex g.n u;
  let rec from e acc =
    if e < g.offsets.(u) then acc else from (e - 1) (g.targets.(e) :: acc)
  in
  from (g.offsets.(u + 1) - 1) []

let iter_succ g u f =
  check_vertex g.n u;
  for e = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    f g.targets.(e)
  done

(* Counting sort by target: scanning sources in ascending order lists
   each vertex's predecessors in ascending order. *)
let reverse g =
  let n = g.n in
  let offsets = Array.make (n + 1) 0 in
  Array.iter (fun v -> offsets.(v + 1) <- offsets.(v + 1) + 1) g.targets;
  for v = 0 to n - 1 do
    offsets.(v + 1) <- offsets.(v + 1) + offsets.(v)
  done;
  let fill = Array.sub offsets 0 n in
  let targets = Array.make (Array.length g.targets) 0 in
  for u = 0 to n - 1 do
    for e = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      let v = g.targets.(e) in
      targets.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1
    done
  done;
  { n; offsets; targets }

let pp ppf g =
  Format.fprintf ppf "@[<v>";
  for u = 0 to g.n - 1 do
    Format.fprintf ppf "%d ->" u;
    iter_succ g u (fun v -> Format.fprintf ppf " %d" v);
    if u < g.n - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
