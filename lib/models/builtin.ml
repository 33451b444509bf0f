let all =
  [ ("adhoc", "the paper's ad hoc network case study (9 states)");
    ("adhoc-srn",
     "the same model generated from its stochastic reward net");
    ("multiprocessor", "Meyer-style degradable multiprocessor (5 states)");
    ("multiprocessor-tracked",
     "the same system with every processor tracked (16 states)");
    ("cluster", "workstation cluster with switch and quorum (18 states)");
    ("queue", "M/M/1/6 queue with server breakdowns (14 states)") ]

let load name =
  match name with
  | "adhoc" ->
    let init = Linalg.Vec.unit 9 Adhoc.initial_state in
    Some (Adhoc.mrm (), Adhoc.labeling (), init)
  | "adhoc-srn" ->
    let m = Adhoc_srn.mrm () in
    let init = Linalg.Vec.unit (Markov.Mrm.n_states m) 0 in
    Some (m, Adhoc_srn.labeling (), init)
  | "multiprocessor" ->
    let c = Multiprocessor.default in
    let m = Multiprocessor.mrm c in
    let init =
      Linalg.Vec.unit (Markov.Mrm.n_states m) (Multiprocessor.initial_state c)
    in
    Some (m, Multiprocessor.labeling c, init)
  | "multiprocessor-tracked" ->
    let c = Multiprocessor.default in
    let m = Multiprocessor.tracked_mrm c in
    let init =
      Linalg.Vec.unit (Markov.Mrm.n_states m)
        (Multiprocessor.tracked_initial_state c)
    in
    Some (m, Multiprocessor.tracked_labeling c, init)
  | "cluster" ->
    let c = Cluster.default in
    let m = Cluster.mrm c in
    let init =
      Linalg.Vec.unit (Markov.Mrm.n_states m) (Cluster.initial_state c)
    in
    Some (m, Cluster.labeling c, init)
  | "queue" ->
    let c = Queue_srn.default in
    let m = Queue_srn.mrm c in
    let init =
      Linalg.Vec.unit (Markov.Mrm.n_states m)
        (Queue_srn.state_of c ~jobs:0 ~server_up:true)
    in
    Some (m, Queue_srn.labeling c, init)
  | _ -> None

(* Interval variants: any builtin widened by a uniform relative drift,
   spelled "<name>-drift" (10%) or "<name>-drift:PCT" (see Source). *)
let all_robust =
  [ ("multiprocessor-drift",
     "the multiprocessor with every rate and reward widened by +/-10%");
    ("<name>-drift[:PCT]",
     "any built-in model widened by a +/-PCT% uniform drift (default 10)")
  ]
