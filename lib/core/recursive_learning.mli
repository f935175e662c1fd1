(** Recursive learning on CNF formulas (Sec. 4.2, Figure 4).

    For a clause that is neither satisfied nor resolved under the current
    (assumption) assignment, each of its free literals is assumed in turn
    and propagated; assignments implied in {e every} branch are necessary
    for the clause — hence for the formula — to be satisfied.  Each
    necessary assignment is recorded together with an explanation clause:
    an implicate of the formula built from the assumption-level
    antecedents the branches actually used, so the same assignments are
    never re-derived during subsequent search (the improvement over
    circuit recursive learning that the paper emphasises).

    Depth [k] recursion performs nested case splits inside branches that
    are not conclusive on their own.

    Splits run on {!Cdcl}'s watched-literal probe API: each branch is a
    {!Cdcl.probe_push} level, necessary assignments are asserted with
    {!Cdcl.probe_assert}, and explanations come from {!support}. *)

type result = {
  necessary : Cnf.Lit.t list;
      (** assignments implied under the given assumptions *)
  implicates : Cnf.Clause.t list;
      (** one explanation clause per necessary assignment; with no
          assumptions these are unit clauses *)
  unsat : bool;
      (** some clause cannot be satisfied under the assumptions *)
  splits : int;  (** number of case splits performed *)
}

val support : Cdcl.t -> level:int -> Cnf.Lit.t -> Cnf.Lit.t list
(** [support s ~level l] — for a literal [l] currently true in [s], the
    literals assigned below decision level [level] that the implication
    chain of [l] rests on: the walk over {!Cdcl.reason} clauses of
    GRASP/Chaff conflict analysis, stopped below the branch's level.
    Literals at [level] or above that have no reason (the branch
    literal, units asserted inside the branch) end the walk without
    joining the support. *)

val learn :
  ?assumptions:Cnf.Lit.t list ->
  ?depth:int ->
  ?max_clause_size:int ->
  ?max_passes:int ->
  Cnf.Formula.t ->
  result
(** Defaults: no assumptions, depth 1, clauses up to size 8, 4 passes
    (each pass re-examines clauses with the newly derived assignments in
    force). *)

val strengthen :
  ?depth:int -> Cnf.Formula.t -> Cnf.Formula.t * result
(** Preprocessing wrapper: runs {!learn} without assumptions and returns
    the formula extended with the derived unit implicates. *)
