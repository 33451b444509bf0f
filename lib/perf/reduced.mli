(** The model reduction of the paper's Theorem 1.

    To check [P<>p (Phi U^{<=t}_{<=r} Psi)] at a state it suffices to check
    reward-bounded instant-of-time reachability on a transformed model:
    all [Psi]-states and all [not (Phi or Psi)]-states are made absorbing
    with reward zero.  A path that reaches a [Psi]-state in time and
    budget gets trapped there without earning further reward, so the mass
    in the goal set at time [t] with reward at most [r] is exactly the
    until probability.

    For impulse-free models the two absorbing classes are additionally
    {e amalgamated} into single GOAL and FAIL states, shrinking the model
    ("making the MRM considerably smaller", as the paper notes).  With
    impulse rewards the amalgamation is skipped: transitions into
    different goal states may carry different impulses, which a merged
    state could not represent. *)

type t = private {
  mrm : Markov.Mrm.t;       (** the reduced model [M'] *)
  state_map : int array;    (** old state -> new state *)
  goal : bool array;        (** the goal set, in reduced-space indices *)
  amalgamated : bool;       (** whether GOAL/FAIL were merged *)
}

val reduce : Markov.Mrm.t -> phi:bool array -> psi:bool array -> t
(** Build the reduced model.  When amalgamated, kept states are the
    [Phi and not Psi] states in their original relative order, followed
    by GOAL and FAIL (in that order). *)

val problem :
  t -> init:Linalg.Vec.t -> time_bound:float -> reward_bound:float ->
  Problem.t
(** The reachability problem of Theorem 2 on the reduced model: the initial
    distribution (given on the {e original} state space) is pushed through
    the state map, and the goal set is [goal]. *)

val until_probabilities_via :
  ?pool:Parallel.Pool.t -> (Problem.t -> float) -> Markov.Mrm.t ->
  phi:bool array -> psi:bool array -> time_bound:float ->
  reward_bound:float -> Linalg.Vec.t
(** [until_probabilities_via solve m ~phi ~psi ~time_bound ~reward_bound]
    computes [Prob (Phi U^{<=t}_{<=r} Psi)] for every state of [m], running
    [solve] once per relevant initial state of the reduced model.  States
    in [Psi] get probability [1]; states outside [Phi or Psi] get [0].
    The per-initial-state solves are independent and dispatched across
    [pool] (cutoff one, so each solve's inner kernels run inline on the
    busy pool and answers stay bit-identical for every pool size). *)
