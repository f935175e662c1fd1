(** The [satd] wire protocol: line-delimited JSON frames.

    Every frame is exactly one JSON object on one [\n]-terminated line
    ({!Sat.Json.parse_line} is the reader contract).  Requests carry a
    [verb] and a client-chosen [id]; every reply echoes the [id] of the
    request it answers, so clients may pipeline.  The full verb set,
    field-by-field schema and error-code table are documented in
    [docs/SATD.md]; this module is the single encoder/decoder both the
    server and the client link against. *)

val version : int
(** Protocol version, [1].  Requests may carry ["v"]; a mismatch is
    refused with [Bad_request]. *)

(** {1 Requests} *)

type solve_params = {
  clauses : int list list;
      (** the formula, one clause per inner list, DIMACS literal
          convention (non-zero integers, sign = polarity) *)
  nvars : int;
      (** declared variable count; grown to the maximum variable
          mentioned by a clause, and models are padded to it *)
  assumptions : int list;  (** DIMACS literals assumed for this query *)
  max_conflicts : int option;  (** per-query budget *)
  max_decisions : int option;
  timeout_ms : int option;
      (** wall-clock deadline; an exceeded query stops within one
          search iteration and answers [unknown (timeout)] *)
  tenant : string;
      (** metrics-rollup key; per-tenant registries appear under this
          name in the [stats] reply (default ["default"]) *)
  use_cache : bool;
      (** when [false] the query bypasses the result cache and the
          warm-session pool (always solved from scratch, never stored) *)
}

val mk_solve :
  ?nvars:int ->
  ?assumptions:int list ->
  ?max_conflicts:int ->
  ?max_decisions:int ->
  ?timeout_ms:int ->
  ?tenant:string ->
  ?use_cache:bool ->
  int list list ->
  solve_params
(** [solve_params] with defaults: [nvars] = max variable mentioned, no
    assumptions, no budgets, tenant ["default"], cache on. *)

type request =
  | Solve of solve_params
  | Cancel of string  (** the [id] of an in-flight query on the same
                          connection *)
  | Stats
  | Ping
  | Shutdown  (** drain in-flight work, reply, then exit *)

(** {1 Error codes} *)

type error_code =
  | Parse_error  (** the frame is not a valid single-line JSON value *)
  | Bad_request  (** valid JSON, but not a valid request *)
  | Overloaded   (** admission control refused: the work queue is full *)
  | Shutting_down  (** the daemon is draining and admits no new work *)
  | Too_large    (** frame exceeds the server's size bound *)
  | Internal     (** the server failed; the query was not answered *)

val error_code_string : error_code -> string
val error_code_of_string : string -> error_code option

(** {1 Decoding requests (server side)} *)

val request_of_json :
  Sat.Json.t -> (string * request, string * error_code * string) result
(** [Ok (id, request)], or [Error (id, code, message)] where [id] is
    the request id when one could be recovered (so the error reply can
    still be correlated) and [""] otherwise. *)

(** {1 Encoding requests (client side)} *)

val solve_request : id:string -> solve_params -> Sat.Json.t
val cancel_request : id:string -> target:string -> Sat.Json.t
val stats_request : id:string -> Sat.Json.t
val ping_request : id:string -> Sat.Json.t
val shutdown_request : id:string -> Sat.Json.t

(** {1 Encoding replies (server side)} *)

type solve_result = {
  outcome : Sat.Types.outcome;
  cached : bool;       (** answered from the result cache, no search *)
  warm : bool;         (** solved on a pooled warm session *)
  matched_prefix : int;
      (** clauses already present in the warm session (0 when cold) *)
  time_s : float;      (** service time, excluding queueing *)
  conflicts : int;
  decisions : int;
}

val solve_reply : id:string -> nvars:int -> solve_result -> Sat.Json.t
(** Status [sat] (with a DIMACS-literal [model] padded to [nvars]),
    [unsat] (with a [core] field for assumption failures), or
    [unknown] (with a [reason]). *)

val ok_reply : id:string -> verb:string -> Sat.Json.t
val stats_reply : id:string -> data:Sat.Json.t -> Sat.Json.t
val error_reply : id:string -> error_code -> string -> Sat.Json.t

(** {1 Decoding replies (client side)} *)

type reply = {
  r_id : string;
  r_status : string;  (** [sat], [unsat], [unknown], [ok] or [error] *)
  r_model : bool array option;  (** present iff status [sat] *)
  r_reason : string option;  (** present iff status [unknown] *)
  r_error : (error_code * string) option;  (** present iff status [error] *)
  r_cached : bool;
  r_warm : bool;
  r_time_s : float;
  r_data : Sat.Json.t option;  (** the [stats] payload *)
  r_raw : Sat.Json.t;
}

val reply_of_json : Sat.Json.t -> (reply, string) result
