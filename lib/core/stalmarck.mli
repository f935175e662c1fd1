(** Stålmarck-style saturation (Sheeran & Stålmarck [34] in the paper's
    survey of SAT approaches).

    The k-saturation procedure applies the {e dilemma rule}: split on a
    variable, propagate both branches (recursively saturating at depth
    k-1), and keep the assignments common to both.  0-saturation is unit
    propagation; depth-k saturation is a polynomial-time, incomplete
    proof procedure that refutes exactly the formulas of proof hardness
    at most k.  The paper notes that, unlike backtrack search, such
    procedures have not displaced CDCL for EDA — experiment E15 measures
    both sides of that comparison.

    Branches run on {!Cdcl}'s watched-literal probe API: a split is a
    {!Cdcl.probe_push} level, and necessary assignments are asserted
    with {!Cdcl.probe_assert}. *)

type result =
  | Refuted of int
      (** unsatisfiability proven; the argument is the saturation depth
          that closed the proof *)
  | Saturated of Cnf.Lit.t list
      (** fixpoint reached without refutation: the returned literals are
          forced in every model (possibly empty); the formula may still
          be either satisfiable or unsatisfiable *)

val saturate : ?depth:int -> Cnf.Formula.t -> result
(** Saturates at increasing depths up to [depth] (default 1). *)

val prove_unsat : ?depth:int -> Cnf.Formula.t -> bool
(** [true] only when saturation refutes the formula (sound, incomplete). *)
