(** Conflict-driven clause-learning SAT solver.

    This is the generic backtrack-search algorithm of Figure 2 of the paper
    with the "key properties" of modern solvers (Sec. 4.1): conflict
    analysis with clause recording, non-chronological backtracking,
    relevance-based (and other) clause-deletion policies, branching
    heuristics, randomized restarts (Sec. 6), and incremental solving under
    assumptions (Sec. 6).

    Two-literal watching is used for Boolean constraint propagation
    ([Deduce]); 1-UIP conflict analysis implements [Diagnose]; the asserted
    UIP literal at the backjump level realises GRASP's conflict-induced
    necessary assignments.

    A {!plugin} lets a client layer observe assignments and override the
    decision procedure and the satisfiability test — the mechanism by which
    the [Csat] library adds the circuit structural layer of Section 5
    without touching the solver's data structures. *)

type t

type plugin = {
  on_assign : Cnf.Lit.t -> unit;
      (** called after every assignment (decision or implication) *)
  on_unassign : Cnf.Lit.t -> unit;
      (** called as assignments are undone during backtracking *)
  decide : unit -> Cnf.Lit.t option;
      (** consulted before the built-in heuristic; must return an
          unassigned literal or [None] to fall through *)
  is_complete : unit -> bool;
      (** when it returns [true] the current (possibly partial) assignment
          is declared satisfying and the search stops — the paper's
          "empty justification frontier" termination test *)
}

val no_plugin : plugin

val create : ?config:Types.config -> Cnf.Formula.t -> t
(** Builds a solver over a snapshot of the formula's clauses.  Later
    clauses added to the [Formula.t] are not seen; use {!add_clause}.
    When the configuration carries a [guide], it is applied once the
    formula's variables and clauses are in (see {!apply_guidance}). *)

val apply_guidance : t -> Types.guidance -> unit
(** Seeds VSIDS activities and saved phases from structure-derived
    guidance (see {!module:Guide} and [docs/TUNING.md]).  Activities in
    [[0, 1]] are scaled to the solver's current activity ceiling, so
    seeded variables are branched first but later conflict-driven bumps
    can overtake them; a seed below a variable's current activity is
    ignored.  Phases overwrite the saved polarity.  Legal between
    solves; variables outside the solver's range are skipped.  Purely
    heuristic — never changes the answer. *)

val config : t -> Types.config
val set_plugin : t -> plugin -> unit

val nvars : t -> int
val new_var : t -> int

val add_clause : t -> Cnf.Lit.t list -> unit
(** Adds a clause at decision level 0 (the solver must not be
    mid-search).  Adding a falsified clause makes the instance
    unsatisfiable. *)

val import_clause : ?lbd:int -> t -> Cnf.Lit.t list -> unit
(** Accepts a {e foreign} clause — typically one learned by another
    solver working on the same formula — at decision level 0, reusing
    {!add_clause}'s simplification and watch invariants.  The clause is
    recorded as a learnt clause carrying [lbd] (default: its length), so
    clause-deletion policies may later discard it; clauses currently
    locked as propagation reasons are never deleted.  Importing is sound
    iff the clause is an implicate of the solver's formula.  Counted in
    the [imported] field of {!Types.stats}.  Legal between [solve] calls and from a
    {!set_restart_hook} callback (both are level-0 boundaries). *)

val set_learn_hook : t -> (Cnf.Lit.t list -> int -> unit) option -> unit
(** [set_learn_hook s (Some h)] makes the solver call [h lits lbd] once
    for every recorded learned clause (unit learned clauses report
    [lbd = 1]), before the clause is attached.  Used to export strong
    clauses to other solvers of the same formula.  [None] removes the
    hook. *)

val set_restart_hook : t -> (unit -> unit) option -> unit
(** Called at level-0 boundaries of the search: once at [solve] entry
    and after every restart.  The solver is at decision level 0 during
    the callback, so {!import_clause} is legal there — the import side
    of clause sharing. *)

val set_tracer : t -> Trace.sink option -> unit
(** Attaches a {!Trace} sink.  The solver then emits structured events —
    decisions, propagation batches, conflicts, learned clauses, restarts,
    database reductions, imports, and solve begin/end — into the sink.
    With [None] (the default) every emission site is a single option
    check; the propagation inner loop is untouched either way. *)

val set_instruments : t -> Metrics.solver_instruments option -> unit
(** Attaches the standard search-shape histograms
    ({!Metrics.solver_instruments}): LBD per learned clause, decision
    levels unwound per conflict, and trail depth at each conflict.
    [None] (the default) disables the observations. *)

val set_metrics : t -> Metrics.t option -> unit
(** Attaches a full metrics registry for the counter-shaped
    instrumentation that {!set_instruments}'s fixed histogram record
    cannot carry: the inprocessing pass increments [inprocess/rounds],
    [inprocess/subsumed], [inprocess/vivified] and
    [inprocess/vivified_literals], and brackets itself in a ["simplify"]
    phase span ({!Metrics.phase_begin}/{!Metrics.phase_end}).  [None]
    (the default) disables the emissions. *)

type inprocess_stats = {
  mutable inp_rounds : int;    (** inprocessing passes run *)
  mutable inp_subsumed : int;  (** learnt clauses deleted by subsumption *)
  mutable inp_vivified : int;  (** learnt clauses shortened by vivification *)
  mutable inp_vivified_lits : int;  (** literals removed by vivification *)
}

val inprocess_stats : t -> inprocess_stats
(** Cumulative counters of the inprocessing hook enabled by
    {!Types.config.inprocessing}: at restart boundaries (at least
    [inprocess_interval] conflicts apart) the solver deletes learnt
    clauses subsumed by a smaller clause and {e vivifies} the
    lowest-LBD learnt clauses — asserting the negation of each literal
    in turn and shortening the clause when propagation closes it early.
    The pass is budgeted (clauses and propagations per pass) so it can
    never dominate the search it is meant to accelerate. *)

val solve :
  ?stop:Stop.t ->
  ?assumptions:Cnf.Lit.t list ->
  ?max_conflicts:int ->
  ?max_decisions:int ->
  t ->
  Types.outcome
(** Runs the search.  The solver backtracks to level 0 afterwards and can
    be reused incrementally: learned clauses persist across calls.

    [max_conflicts] / [max_decisions] bound {e this call only} — they are
    measured from the call's starting counters, unlike the lifetime
    budgets in {!Types.config}.  A budgeted call returns
    [Unknown "budget"] and leaves the solver reusable.

    [stop] (default {!Stop.none}) bounds this call by wall-clock time
    and cancellation: the search loop checks it once per iteration and
    returns [Unknown "timeout"] or [Unknown "interrupted"]
    ({!Stop.reason}), leaving the solver at level 0 and fully reusable.
    The token belongs to the call, not to the solver, so it cannot
    affect a later [solve].  Each stopped search is counted in the
    [interrupts] field of {!Types.stats}. *)

val stats : t -> Types.stats
(** Cumulative across [solve] calls; snapshot with {!Types.copy_stats}
    and scope per call with {!Types.diff_stats}. *)

val prune_learnts :
  t ->
  keep:(lbd:int -> size:int -> lits:Cnf.Lit.t array -> bool) ->
  unit
(** Applies a retention policy to the learned-clause database (legal only
    between [solve] calls): clauses for which [keep] returns [false] are
    deleted, except clauses currently locked as propagation reasons.
    [lits] is the solver's internal array — do not mutate it. *)

val value : t -> Cnf.Lit.t -> int
(** Current assignment of a literal: 1 true, 0 false, -1 unassigned.
    Intended for plugins during search. *)

val value_var : t -> int -> int

val decision_level : t -> int

val learned_clauses : t -> Cnf.Clause.t list
(** The currently recorded (non-deleted) learned clauses — each an
    implicate of the original formula. *)

val proof : t -> Types.proof_step list
(** The DRAT proof stream in emission order (requires
    [config.proof_logging]).  [Add] steps are learned or vivified
    clauses, each reverse-unit-propagation derivable from the clauses
    active when it appears; [Delete] steps record clause-database
    reductions, learnt-clause subsumption, and inprocessing rewrites.
    Clauses accepted through {!import_clause} are {e not} recorded, so
    proofs from clause-sharing runs are incomplete — proof-producing
    configurations must run a single sequential solver.  See
    {!module:Proof} and [docs/PROOFS.md]. *)

val check_watches : t -> (unit, string) result
(** Debug-only invariant checker (O(clauses × watch-list length) — never
    call it on a hot path): verifies that every undeleted clause of
    length ≥ 2 is watched on exactly its first two literals, once in each
    list; that every watcher entry's blocking literal belongs to its
    clause; and that tombstone entries left by lazy deletion agree with
    the solver's dead-watcher count.  [Error msg] describes the first
    violation found.  Legal at any decision level. *)

val last_partial_assignment : t -> int array option
(** Snapshot of the variable assignment (1/0/-1) at the moment the last
    [solve] declared satisfiability — before the automatic backtrack.
    With an early-terminating plugin this exposes the don't-cares of the
    computed solution (overspecification analysis, Sec. 5). *)

(** {2 Lookahead probing}

    Primitives for march-style lookahead ({!module:Cube}): drive the
    watcher-based propagator one literal at a time, measure the
    propagation it causes, and undo it.  Probing never learns clauses,
    never touches the branching heuristic and never counts conflicts —
    its cost is pure propagation work.  Legal only between [solve]
    calls; the prober owns the solver's decision levels. *)

type probe =
  | Probe_conflict
      (** the probed literal is a {e failed literal}: under the current
          prefix its negation is implied.  The scratch level has already
          been popped. *)
  | Probe_ok of int * int
      (** [Probe_ok (i, j)] — propagation reached a fixpoint; the newly
          implied literals occupy trail positions [i .. j-1] (read them
          with {!trail_get} {e before} {!probe_pop}). *)

val trail_size : t -> int
(** Number of currently assigned literals.  Equal to {!nvars} exactly
    when the assignment is total — propagation fixpoint without conflict
    on a total assignment is a model. *)

val trail_get : t -> int -> Cnf.Lit.t
(** The [i]-th literal of the trail, in assignment order. *)

val consistent : t -> bool
(** [false] once the formula has been refuted at level 0 (by
    {!add_clause}, {!propagate_root} or a root {!probe_assert}).  All
    probing must stop then: the instance is unsatisfiable. *)

val propagate_root : t -> bool
(** Propagates pending level-0 units to fixpoint (must be called before
    the first probe).  Returns {!consistent}. *)

val probe_push : t -> Cnf.Lit.t -> probe
(** Opens a scratch decision level, asserts the literal and propagates.
    On [Probe_ok] the level stays open — either recurse deeper (the
    literal becomes a cube decision) or {!probe_pop} to undo the probe.
    On [Probe_conflict] the level is popped automatically.  An
    already-true literal yields an empty [Probe_ok] span; an
    already-false one yields [Probe_conflict]. *)

val probe_pop : t -> unit
(** Undoes the most recent open {!probe_push} level (no-op at level 0). *)

val probe_assert : t -> Cnf.Lit.t -> bool
(** Asserts a literal {e at the current level} and propagates — the
    fold-back step for failed literals.  At level 0 the assertion is a
    permanent unit.  Returns [false] on conflict: at level 0 this
    refutes the formula ({!consistent} becomes [false]); above level 0
    the caller must abandon the current prefix ({!probe_pop} through its
    levels) — the trail above the last consistent level is poisoned. *)

val var_activity : t -> int -> float
(** The VSIDS activity of a variable — lets a conquer scheduler split a
    too-hard cube on the variable its search fought over most. *)
