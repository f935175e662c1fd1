(** Stop tokens: the one way to bound a query by wall-clock time or to
    cancel it from another domain.

    A token is an optional absolute {!Monotime} deadline plus a list of
    cancel flags.  It is passed into each solve call ([?stop] on
    {!Cdcl.solve}, {!Session.solve}, {!Solver.solve}, {!Dpll.solve},
    {!Portfolio.solve}, {!Conquer.solve} and [Eda.Bmc.check]) and never
    stored in a solver, so a cancel that arrives after a query returned
    cannot reach the next query on a pooled session.  The search checks
    the token once per loop iteration; it reads the clock only when the
    token has a deadline.

    Reasons: a set flag stops the search with [Unknown "interrupted"], a
    passed deadline with [Unknown "timeout"]. *)

type t

val none : t
(** No deadline, no flags: never stops.  {!cancel} on it does nothing. *)

val create : ?deadline:float -> unit -> t
(** A token with its own fresh cancel flag and, optionally, an absolute
    {!Monotime.now_s} deadline. *)

val after : float -> t
(** [after s] = [create ~deadline:(Monotime.now_s () +. s) ()]. *)

val child : t -> t
(** Same deadline and flags as the parent, plus a fresh flag of its own.
    An engine hands the child to its workers and cancels it to stop
    them, without setting its caller's flag; cancelling the parent still
    stops every child. *)

val cancel : t -> unit
(** Sets the token's own flag (not its parent's).  Safe from any domain. *)

val reason : t -> string option
(** [Some "interrupted"] once any flag is set, else [Some "timeout"] once
    the deadline has passed, else [None]. *)
