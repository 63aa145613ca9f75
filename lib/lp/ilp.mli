(** Binary integer linear programming by branch-and-bound over LP
    relaxations — the "off-the-shelf BLP solver" of the paper (§4.2,
    §5.2).

    Distinctive features, all motivated by the structure of kernel
    orchestration instances (covering rows plus homogeneous dependency
    implications):

    - {b lazy dependency separation}: rows of the form [a . x >= 0] are
      kept out of each node's LP and activated only when a fractional or
      integral optimum violates them — most are slack at the optimum, so
      node LPs stay small while bounds equal the full-row bounds;
    - {b warm starts}: a known feasible assignment (the all-singletons
      strategy in the orchestrator) seeds the incumbent;
    - {b gap tolerances}: nodes within an absolute/relative distance of
      the incumbent are pruned — two orchestration strategies within a
      fraction of one kernel launch are equivalent in practice. *)

type problem = {
  minimize : float array;
  rows : (float array * Simplex.relation * float) list;
}

type status =
  | Optimal  (** tree closed: solution proven optimal up to the gaps *)
  | NodeLimit
      (** the node budget ([max_nodes]), the solver's only budget, ended
          the search: best incumbent returned *)
  | Infeasible  (** no binary assignment satisfies the rows *)

type solution = {
  x : int array;  (** 0/1 assignment; empty when [status = Infeasible] *)
  objective : float;
  status : status;
  nodes_explored : int;
}

(** [is_feasible_binary p x] checks every row of [p] against the 0/1
    assignment [x] (with a small tolerance). *)
val is_feasible_binary : problem -> int array -> bool

(** [objective_of p x] is [p.minimize . x]. *)
val objective_of : problem -> int array -> float

(** [solve ?max_nodes ?rel_gap ?abs_gap ?warm_start p]
    minimizes over binary assignments.

    @param max_nodes branch-and-bound node budget (default 200k), the
           single budget — a deterministic work measure: the same problem
           with the same budget always stops at the same incumbent, on
           every run and under any machine load
    @param rel_gap relative optimality tolerance (default 0: exact)
    @param abs_gap absolute optimality tolerance (default 0: exact)
    @param warm_start feasible assignment used as the initial incumbent
           (silently ignored when infeasible or of the wrong width)

    Returns [None] only when the budget expires before {e any} incumbent
    or infeasibility proof is found.

    Carries the {!Faults.site-Ilp_solve} fault-injection site: an
    installed policy can make this call raise {!Faults.Injected}. *)
val solve :
  ?max_nodes:int ->
  ?rel_gap:float ->
  ?abs_gap:float ->
  ?warm_start:int array ->
  problem ->
  solution option
