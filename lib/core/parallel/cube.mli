(** March-style lookahead cube generation (the "cube" half of
    cube-and-conquer).

    Cube-and-conquer [Heule–Kullmann–Wieringa–Biere, HVC'11] splits a
    hard formula into many {e cubes} (conjunctions of literals) whose
    disjunction covers the search space, then solves [F ∧ cube] for each
    cube independently — CDCL is good at the deep, narrow subproblems
    while lookahead is good at picking the globally important splitting
    variables.  This module is the lookahead half; {!module:Conquer}
    farms the cubes out to worker domains.

    Splitting variables are chosen by {e measured} propagation, not a
    static heuristic: each candidate variable is probed in both phases
    through the watcher-based propagator ({!Cdcl.probe_push}), the
    reduction of a probe is its trail growth plus a Jeroslow–Wang-style
    weight of the clauses it shortens, and the mixed difference score
    [r⁺·r⁻ + r⁺ + r⁻] picks the variable whose {e both} phases simplify
    the formula most.  Probing doubles as failed-literal detection: a
    probe that conflicts implies its negation under the current prefix
    (a level-0 unit when the prefix is empty), and a variable whose both
    phases conflict refutes the prefix itself.

    Soundness of the cover: for every inner node the two branches [l]
    and [¬l] are exhaustive, so

    [F  ≡  F ∧ (⋁ cubes ∨ ⋁ refuted)]   and each refuted prefix has
    been shown unsatisfiable by propagation, hence
    [F  ≡  F ∧ units ∧ (⋁ cubes)]  with [¬refuted_i] implicates of [F].

    The generator is deterministic: same formula, same options (the seed
    feeds the underlying solver config) yield identical cubes, units and
    refuted prefixes — tested by the cube-conquer suite. *)

type options = {
  depth : int;       (** emit a cube after this many decisions *)
  max_cubes : int;   (** stop splitting once this many cubes exist *)
  candidates : int;  (** lookahead candidates probed per node *)
  max_probes : int;  (** global probe budget; cuts off lookahead *)
  seed : int;        (** random seed of the probing solver's config *)
}

val default_options : options
(** depth 8, 2048 cubes, 24 candidates, 400k probes, seed 1. *)

type t = {
  cubes : Cnf.Lit.t list list;
      (** the cover, in generation order; each cube lists its decision
          literals and the literals lookahead found implied along the
          branch (redundant but they seed the conquer solver's trail) *)
  units : Cnf.Lit.t list;
      (** failed literals refuted at the root: level-0 consequences of
          [F], sound to assert globally *)
  refuted : Cnf.Lit.t list list;
      (** decision prefixes refuted during lookahead; the negation of
          each is an implicate of [F] (the conquer phase learns them) *)
  decided : Types.outcome option;
      (** [Some outcome] when lookahead alone settled the formula:
          [Sat model] if propagation completed an assignment, [Unsat] if
          the root was refuted or every branch was; in that case [cubes]
          need not cover anything.  [Some (Unknown reason)] when the
          stop token fired ({!Stop.reason}) *)
  probes : int;            (** probes performed *)
  failed_literals : int;   (** failed literals detected (incl. units) *)
  stats : Types.stats;     (** propagation counts of the probing solver *)
  time_seconds : float;
}

val generate :
  ?stop:Stop.t -> ?options:options -> ?metrics:Metrics.t ->
  ?trace:Trace.sink -> Cnf.Formula.t -> t
(** Run the lookahead DFS.  [stop] (default {!Stop.none}) is checked
    once per lookahead node; when it fires the search ends with
    [decided = Some (Unknown reason)].  Emits [cube/generated], [cube/probes],
    [cube/failed_literals], [cube/units] and [cube/refuted_branches]
    counters under the [cube/lookahead] phase, and a {!Trace.Cube_emit}
    event per cube. *)
