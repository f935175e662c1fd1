(** Parallel portfolio solving with learned-clause sharing.

    Section 6 of the paper identifies randomization of the branching
    heuristic and of the restart policy as one of the most effective
    levers on hard EDA instances.  The modern realization is a
    {e portfolio}: [jobs] diversified CDCL workers race on the same
    formula on OCaml 5 domains, the first definitive answer (SAT /
    UNSAT) wins, and workers exchange strong learned clauses.

    Sharing policy: a worker {e exports} a learned clause when its
    literal-block distance and length are within the {!sharing} bounds,
    into a mutex-protected append-only pool; every worker {e imports}
    the clauses published by the others at its level-0 boundaries
    (search entry and every restart) via {!Cdcl.import_clause}.  The
    import is sound because all workers solve the {e same} clause set
    (identical formula, and imported clauses are themselves implicates),
    so every exported clause is an implicate of the shared formula.

    Determinism: [jobs = 1] takes the plain sequential {!Cdcl} path —
    same outcome and same statistics as [Cdcl.solve] on the same config
    and seed — so existing deterministic experiments are unaffected.

    Satisfiable answers are validated against the formula before being
    reported; unsatisfiable answers can be cross-checked against
    {!Proof.solve_certified} (the property-test suite does). *)

type sharing = {
  share : bool;      (** master switch for clause exchange *)
  max_lbd : int;     (** export clauses with LBD at most this (glue bound) *)
  max_len : int;     (** ... and at most this many literals *)
  capacity : int;    (** pool cap; further exports are dropped *)
}

val default_sharing : sharing
(** [share = true], LBD ≤ 6, length ≤ 30, capacity 20_000.  The LBD
    bound is a policy knob, not a constant: [satsolve --share-lbd]
    threads a user-chosen bound through both the portfolio and the
    cube-and-conquer workers ({!module:Conquer}). *)

(** The shared clause pool behind the exchange: a mutex-protected
    append-only array.  Each consumer keeps a private read cursor, so a
    drain returns exactly the entries published since its previous
    level-0 boundary; origin tags stop a worker re-importing its own
    exports.  Exposed so other multi-worker engines ({!module:Conquer})
    share clauses through the same structure. *)
module Pool : sig
  type entry = { origin : int; lbd : int; lits : Cnf.Lit.t list }

  type t

  val create : int -> t
  (** [create capacity] — entries published beyond [capacity] are
      counted as dropped, not stored. *)

  val publish : t -> entry -> unit

  val drain : t -> cursor:int -> self:int -> entry list * int
  (** Entries published since [cursor], oldest first, skipping those
      with origin [self]; returns the new cursor. *)

  val size : t -> int
  val dropped : t -> int
end

type options = {
  jobs : int;                (** number of worker domains *)
  config : Types.config;     (** base configuration (worker 0 verbatim) *)
  sharing : sharing;
  metrics : Metrics.t option;
      (** each worker observes into a private registry (standard
          {!Metrics.solver_instruments}); after the race settles the
          per-worker registries are merged into this one, the aggregate
          statistics are added, and the [portfolio/jobs],
          [portfolio/pool_size], [portfolio/pool_dropped] and
          [portfolio/winner] metrics are set *)
  trace : Trace.sink option;
      (** each worker emits into a private sink tagged with its worker
          id (plus an [export] event per shared clause); the sinks are
          absorbed into this one after the join, so {!Trace.merged} /
          {!Trace.write_file} yield a time-ordered interleaving that is
          monotone per worker *)
}

val default_options : options
(** [jobs = Domain.recommended_domain_count ()], default config and
    sharing, no observability. *)

val diversify : base:Types.config -> int -> Types.config
(** The configuration worker [i] runs: worker 0 is [base] unchanged;
    workers [i > 0] perturb the random seed, the restart policy and the
    random-decision frequency (branching-order randomization, Sec. 6),
    and alternate the phase-saving polarity source. *)

type worker_report = {
  worker_config : Types.config;
  worker_outcome : Types.outcome;
  worker_stats : Types.stats;
      (** includes [exported] / [imported] / [interrupts] counters (a
          loser stopped by the winner counts one interrupt) *)
}

type result = {
  outcome : Types.outcome;      (** the winning answer *)
  winner : int option;          (** index of the first definitive worker *)
  per_worker : worker_report array;
  stats : Types.stats;          (** aggregate over all workers *)
  pool_size : int;              (** clauses published to the shared pool *)
  time_seconds : float;
}

val solve : ?stop:Stop.t -> ?options:options -> Cnf.Formula.t -> result
(** Races the workers and joins them all before returning.  Each worker
    solves under a {!Stop.child} of [stop] (default {!Stop.none}); the
    first definitive answer cancels that child, so the losers stop at
    their next search-loop iteration.  Without a winner — every worker
    gave up, or [stop] fired — the outcome is worker 0's:
    [Unknown "timeout"] once the deadline has passed, [Unknown
    "interrupted"] once the caller cancelled.  With [jobs = 1], [stop]
    goes straight to the one {!Cdcl.solve}. *)
