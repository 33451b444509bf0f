type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let length = Bigarray.Array1.dim

let get (v : t) i = Bigarray.Array1.get v i

let set (v : t) i x = Bigarray.Array1.set v i x

let create n =
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill v 0.0;
  v

(* Explicit ascending loop (Array.init leaves the order unspecified):
   stateful initialisers see indices in increasing order. *)
let init n f : t =
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set v i (f i)
  done;
  v

let of_array a : t = init (Array.length a) (Array.unsafe_get a)

let to_array (v : t) = Array.init (length v) (Bigarray.Array1.unsafe_get v)

let copy (v : t) =
  let w = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (length v) in
  Bigarray.Array1.blit v w;
  w

let check_lengths name (u : t) (v : t) =
  if length u <> length v then
    invalid_arg (Printf.sprintf "Vec.%s: length mismatch" name)

let copy_into (src : t) (dst : t) =
  check_lengths "copy_into" src dst;
  Bigarray.Array1.blit src dst

let fill (v : t) x = Bigarray.Array1.fill v x

(* A plain index loop instead of Array1.sub + fill: sub allocates a
   proxy bigarray, and this runs inside steady-state solver loops. *)
let fill_range (v : t) pos len x =
  if len < 0 || pos < 0 || pos + len > length v then
    invalid_arg "Vec.fill_range: range out of bounds";
  for k = 0 to len - 1 do
    Bigarray.Array1.unsafe_set v (pos + k) x
  done

let iter f (v : t) =
  for i = 0 to length v - 1 do
    f (Bigarray.Array1.unsafe_get v i)
  done

let iteri f (v : t) =
  for i = 0 to length v - 1 do
    f i (Bigarray.Array1.unsafe_get v i)
  done

let map f (v : t) = init (length v) (fun i -> f (Bigarray.Array1.unsafe_get v i))

let for_all f (v : t) =
  let n = length v in
  let rec go i = i >= n || (f (Bigarray.Array1.unsafe_get v i) && go (i + 1)) in
  go 0

let scale c v = map (fun x -> c *. x) v

let scale_in_place c (v : t) =
  for i = 0 to length v - 1 do
    Bigarray.Array1.unsafe_set v i (c *. Bigarray.Array1.unsafe_get v i)
  done

let scale_into c (src : t) (dst : t) =
  check_lengths "scale_into" src dst;
  for i = 0 to length src - 1 do
    Bigarray.Array1.unsafe_set dst i (c *. Bigarray.Array1.unsafe_get src i)
  done

let add u v =
  check_lengths "add" u v;
  init (length u) (fun i ->
      Bigarray.Array1.unsafe_get u i +. Bigarray.Array1.unsafe_get v i)

let axpy ~alpha ~(x : t) ~(y : t) =
  check_lengths "axpy" x y;
  for i = 0 to length x - 1 do
    Bigarray.Array1.unsafe_set y i
      (Bigarray.Array1.unsafe_get y i
      +. (alpha *. Bigarray.Array1.unsafe_get x i))
  done

let axpy_into ~alpha ~(x : t) ~(y : t) (dst : t) =
  check_lengths "axpy_into" x y;
  check_lengths "axpy_into" y dst;
  for i = 0 to length x - 1 do
    Bigarray.Array1.unsafe_set dst i
      (Bigarray.Array1.unsafe_get y i
      +. (alpha *. Bigarray.Array1.unsafe_get x i))
  done

(* The summations below hand-inline the Kahan-Babuska step of
   [Numerics.Kahan.add] on local float refs (which the compiler keeps in
   registers): the float ops and their order are exactly those of the
   Kahan module, so the results are bit-identical, but no accumulator
   record or boxed intermediate is allocated — these run once per cell of
   the transient-analysis recursions. *)
let dot (u : t) (v : t) =
  check_lengths "dot" u v;
  let s = ref 0.0 and comp = ref 0.0 in
  for i = 0 to length u - 1 do
    let x =
      Bigarray.Array1.unsafe_get u i *. Bigarray.Array1.unsafe_get v i
    in
    let s' = !s +. x in
    let c =
      if Float.abs !s >= Float.abs x then (!s -. s') +. x
      else (x -. s') +. !s
    in
    s := s';
    comp := !comp +. c
  done;
  !s +. !comp

let sum (v : t) =
  let s = ref 0.0 and comp = ref 0.0 in
  for i = 0 to length v - 1 do
    let x = Bigarray.Array1.unsafe_get v i in
    let s' = !s +. x in
    let c =
      if Float.abs !s >= Float.abs x then (!s -. s') +. x
      else (x -. s') +. !s
    in
    s := s';
    comp := !comp +. c
  done;
  !s +. !comp

let normalize v =
  let s = sum v in
  if not (s > 0.0) then invalid_arg "Vec.normalize: non-positive sum";
  scale (1.0 /. s) v

let masked_sum (v : t) mask =
  if length v <> Array.length mask then
    invalid_arg "Vec.masked_sum: length mismatch";
  let s = ref 0.0 and comp = ref 0.0 in
  for i = 0 to length v - 1 do
    if Array.unsafe_get mask i then begin
      let x = Bigarray.Array1.unsafe_get v i in
      let s' = !s +. x in
      let c =
        if Float.abs !s >= Float.abs x then (!s -. s') +. x
        else (x -. s') +. !s
      in
      s := s';
      comp := !comp +. c
    end
  done;
  !s +. !comp

let unit n i =
  if i < 0 || i >= n then invalid_arg "Vec.unit: index out of bounds";
  let v = create n in
  Bigarray.Array1.set v i 1.0;
  v

let linf_dist (u : t) (v : t) =
  check_lengths "linf_dist" u v;
  let acc = ref 0.0 in
  for i = 0 to length u - 1 do
    acc :=
      Float.max !acc
        (Float.abs
           (Bigarray.Array1.unsafe_get u i -. Bigarray.Array1.unsafe_get v i))
  done;
  !acc

let is_distribution ?(tol = 1e-9) v =
  for_all (fun x -> Numerics.Float_utils.is_prob ~slack:tol x) v
  && Float.abs (sum v -. 1.0) <= tol

let is_sub_distribution ?(tol = 1e-9) v =
  for_all (fun x -> Numerics.Float_utils.is_prob ~slack:tol x) v
  && sum v <= 1.0 +. tol

let pp ppf (v : t) =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf x -> Format.fprintf ppf "%g" x))
    (Seq.init (length v) (Bigarray.Array1.get v))
