(** DPLL baseline: backtrack search with unit propagation, chronological
    backtracking and {e no} clause learning.

    This is the point of comparison for the paper's Section 4.1 claims:
    modern solvers owe their performance to conflict analysis — learning
    and non-chronological backtracking — which this solver deliberately
    lacks.  Decision heuristics are shared with {!Cdcl} via
    {!Types.config} (VSIDS degenerates to fixed-order here since there are
    no conflict clauses to bump activity). *)

val solve :
  ?config:Types.config -> ?stop:Stop.t -> ?assumptions:Cnf.Lit.t list ->
  Cnf.Formula.t -> Types.outcome * Types.stats
(** One-shot solve.  [max_decisions]/[max_conflicts] budgets yield
    [Unknown "budget"]; [stop] is checked next to them and yields
    [Unknown "timeout"] or [Unknown "interrupted"] ({!Stop.reason}).
    Assumptions are installed as the first decisions; an unsatisfiable
    result under assumptions is reported as [Unsat_assuming] with the
    full assumption list (no core minimization). *)
