(** The reward-bounded instant-of-time reachability problem.

    All three computational procedures of the paper's Section 4 solve the
    same question (Theorem 2): given an MRM, an initial distribution, a
    goal set [S'], a time bound [t] and a reward bound [r], compute

    [Pr{ Y_t <= r, X_t in S' }]

    — the probability of sitting in the goal set at time [t] with
    accumulated reward at most [r].  (The paper states the theorem for
    strict inequality [Y_t < r]; the two differ only on the null set of
    paths accumulating exactly [r], which carries probability zero unless
    [r] sits exactly on an atom [rho s *. t] of a path that never leaves
    state [s], or on a sum of impulse rewards — the band treatment in the
    engines and pseudo-Erlang's at-bound phase make the convention
    explicit.) *)

type t = private {
  mrm : Markov.Mrm.t;
  init : Linalg.Vec.t;        (** initial distribution [alpha] *)
  goal : bool array;          (** the goal set [S'] *)
  time_bound : float;         (** [t > 0] *)
  reward_bound : float;       (** [r >= 0] *)
}

val make :
  Markov.Mrm.t -> init:Linalg.Vec.t -> goal:bool array -> time_bound:float ->
  reward_bound:float -> t
(** Validates dimensions, that [init] is a distribution, [time_bound > 0]
    and [reward_bound >= 0]. *)

val of_initial_state :
  Markov.Mrm.t -> init:int -> goal:bool array -> time_bound:float ->
  reward_bound:float -> t
(** Point-mass initial distribution. *)

val from_state : t -> int -> t
(** [from_state p b] asks [p]'s question from the point mass at state
    [b]: {!of_initial_state} with [p]'s model, goal and bounds. *)

val dual : t -> t
(** [dual p] asks [p]'s question on {!Markov.Duality.dual} of its model
    with the time and reward bounds swapped, from the same initial
    distribution and for the same goal set.  By the duality theorem of
    Baier et al. (Theorem 1 there) it has [p]'s answer when every goal
    state is absorbing with reward 0 — the Theorem 1 form — and not in
    general.  Raises [Invalid_argument] when the model is not
    {!Markov.Duality.is_dualizable} or the reward bound is 0. *)

val reward_trivially_satisfied : t -> bool
(** [rho_max *. t <= r] on an impulse-free model: the reward bound can
    never be exceeded, so the problem degenerates to ordinary transient
    reachability.  Never true when impulse rewards are present (jumps are
    unbounded in number). *)

val pp : Format.formatter -> t -> unit
