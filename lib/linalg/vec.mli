(** Dense float vectors.

    Backed by unboxed [(float, float64_elt, c_layout) Bigarray.Array1.t]:
    a flat 8-byte-per-entry buffer outside the OCaml heap, so kernels walk
    contiguous doubles with no per-element boxing and the GC never scans
    or moves vector payloads.  The type is a public alias, so call sites
    index with [v.{i}] directly.  All distribution vectors in the checker
    go through this module.

    Numerical contract: {!sum}, {!dot} and {!masked_sum} accumulate with
    the same Kahan-Babuska recurrence (and the same element order) as the
    former [float array] implementation, and every other operation keeps
    its element-wise expression unchanged — results are bit-identical to
    the pre-Bigarray code. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Zero vector of the given length. *)

val length : t -> int

val init : int -> (int -> float) -> t
(** [init n f] fills index [i] with [f i], applied in increasing order. *)

val get : t -> int -> float
(** [get v i] is [v.{i}] (bounds-checked). *)

val set : t -> int -> float -> unit

val of_array : float array -> t

val to_array : t -> float array

val copy : t -> t

val copy_into : t -> t -> unit
(** [copy_into src dst] overwrites [dst] with [src]; lengths must agree. *)

val fill : t -> float -> unit

val fill_range : t -> int -> int -> float -> unit
(** [fill_range v pos len x] sets [v.{pos..pos+len-1}] to [x]. *)

val iter : (float -> unit) -> t -> unit

val iteri : (int -> float -> unit) -> t -> unit

val map : (float -> float) -> t -> t
(** Fresh vector; [f] applied in increasing index order. *)

val for_all : (float -> bool) -> t -> bool

val scale : float -> t -> t
(** Fresh vector [c *. v]. *)

val scale_in_place : float -> t -> unit

val scale_into : float -> t -> t -> unit
(** [scale_into c src dst] writes [c *. src.{i}] into [dst]; bit-identical
    to {!scale} without the allocation.  [src == dst] is allowed. *)

val add : t -> t -> t
(** Fresh element-wise sum; lengths must agree. *)

val axpy : alpha:float -> x:t -> y:t -> unit
(** In-place [y <- alpha * x + y]. *)

val axpy_into : alpha:float -> x:t -> y:t -> t -> unit
(** [axpy_into ~alpha ~x ~y dst] writes [alpha * x + y] into [dst] with
    the same per-element expression as {!axpy}; [dst] may alias [y]. *)

val dot : t -> t -> float
(** Compensated dot product. *)

val sum : t -> float
(** Compensated sum of the entries. *)

val normalize : t -> t
(** Fresh copy scaled so the entries sum to one.  Raises
    [Invalid_argument] if the sum is not positive. *)

val masked_sum : t -> bool array -> float
(** [masked_sum v mask] sums [v.{i}] over indices with [mask.(i)]. *)

val unit : int -> int -> t
(** [unit n i] is the [i]-th standard basis vector of length [n]. *)

val linf_dist : t -> t -> float

val is_distribution : ?tol:float -> t -> bool
(** All entries in [\[0,1\]] (within [tol]) and total within [tol] of 1. *)

val is_sub_distribution : ?tol:float -> t -> bool
(** All entries in [\[0,1\]] (within [tol]) and total at most [1 + tol]. *)

val pp : Format.formatter -> t -> unit
