(** Query scheduler: a bounded domain pool fed by a bounded work queue,
    with admission control, per-query budgets, cooperative cancellation
    and per-tenant metrics rollup.

    This is the daemon's engine room, usable without any socket in
    front of it (the benchmarks and tests drive it directly):

    - {!submit} either queues the query or refuses it immediately —
      [Overloaded] when the queue is at capacity (backpressure),
      [Draining] once shutdown has begun;
    - each worker domain serves queries through the {!Cache}: an exact
      repeat answers from the result cache, a grown query checks out
      the warm session holding its longest pooled prefix, anything
      else solves cold — and every session returns to the pool
      afterwards, including after a stopped query (nothing leaks);
    - each query owns one {!Sat.Stop} token built at {!submit} from its
      deadline; the search checks it itself, so a deadline fires on
      time without any polling, and {!cancel} sets the token's flag
      (safe cross-domain);
    - per-query solver metrics accumulate into a per-tenant
      {!Sat.Metrics} registry via the existing {!Sat.Metrics.merge_into},
      exposed by {!stats_json} (the [stats] verb payload). *)

type t

type answer = {
  outcome : Sat.Types.outcome;
  cached : bool;
  warm : bool;
  matched_prefix : int;
  time_s : float;
  conflicts : int;
  decisions : int;
}

type job
type submit_error = Overloaded | Draining

(** Cube-and-conquer decomposition policy for oversized queries.  A
    query with at least [threshold_clauses] clauses, no assumptions and
    no budget (neither its own nor a server cap) bypasses the
    warm-session pool and is decomposed by {!Sat.Conquer} across
    [decompose_jobs] worker domains ([depth] lookahead decisions per
    cube, [cutoff] conflicts before a cube splits dynamically).
    Budgeted or assumption-carrying queries keep the exact semantics of
    the incremental path.  Results still land in the result cache;
    cancellation and deadlines stop the decomposed run cooperatively. *)
type decompose = {
  threshold_clauses : int;
  decompose_jobs : int;
  depth : int;
  cutoff : int;
}

val create :
  ?jobs:int ->
  ?max_queue:int ->
  ?max_conflicts_cap:int ->
  ?decompose:decompose ->
  ?autotune:bool ->
  ?cache:Cache.t ->
  unit ->
  t
(** Spawns the worker domains.  Defaults: [jobs] =
    [Domain.recommended_domain_count () - 1] (at least 1), [max_queue]
    = 128 pending queries, no conflict cap, no decomposition, a fresh
    default {!Cache.create}.  [max_conflicts_cap] bounds every query's
    conflict budget (applied on top of the query's own, whichever is
    smaller) — the admission-control backstop against a tenant
    submitting unbounded work.

    With [autotune] (default off), each {e cold, unbudgeted} query is
    measured with {!Sat.Autotune.extract} and its fresh session gets
    the restart schedule, inprocessing switch and optional
    {!Sat.Guide.of_formula} seeding the decision table picks at jobs=1
    (docs/TUNING.md; the engine dimension stays the scheduler's own).
    Warm pool hits keep their configuration — carried-over solver
    state is the whole point of the pool — and budgeted queries keep
    exact budget semantics untouched.  The [autotuned] counter in
    {!stats_json} counts tuned queries. *)

val submit :
  t ->
  ?deadline:float ->
  on_done:(answer -> unit) ->
  Protocol.solve_params ->
  (job, submit_error) result
(** Queues a query.  [on_done] runs in the worker domain that served
    it (callers bridge to their own thread; the socket server pushes
    to a completion queue).  [deadline] is an absolute
    {!Sat.Monotime.now_s} instant: a query still queued then answers
    [Unknown "timeout"] without solving, a running one stops at its
    next search-loop iteration with the same answer. *)

val cancel : t -> job -> unit
(** Cancels a queued or running query.  Queued: it answers
    [Unknown "cancelled"] without solving.  Running: the search stops
    at its next loop iteration; the query answers [Unknown "cancelled"]
    and the session survives into the pool.  A cancel after the query
    finished has no effect on anything. *)

val solve : t -> Protocol.solve_params -> (answer, submit_error) result
(** Blocking convenience over {!submit} — the in-process client used
    by benchmarks and tests. *)

val queue_depth : t -> int
val inflight : t -> int
val jobs : t -> int
val cache : t -> Cache.t

val set_draining : t -> unit
(** Stop admitting new queries ({!submit} answers [Draining]);
    already-queued and running queries complete normally. *)

val draining : t -> bool

val quiescent : t -> bool
(** No queued and no running queries. *)

val drain : t -> unit
(** {!set_draining} then block until {!quiescent}. *)

val shutdown : t -> unit
(** {!drain}, then stop and join the worker domains.  The scheduler
    must not be used afterwards. *)

val stats_json : t -> Sat.Json.t
(** The [stats]-verb payload: service counters (queries, cancellations,
    timeouts, refusals, decomposed runs, queue depth high-water),
    {!Cache.stats_json}, and one merged {!Sat.Metrics.to_json} snapshot
    per tenant. *)
