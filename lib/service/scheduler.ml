(* Domain-pool query scheduler.  See scheduler.mli for the contract. *)

module J = Sat.Json
module T = Sat.Types

type answer = {
  outcome : T.outcome;
  cached : bool;
  warm : bool;
  matched_prefix : int;
  time_s : float;
  conflicts : int;
  decisions : int;
}

type job = {
  params : Protocol.solve_params;
  stop : Sat.Stop.t;  (* the deadline, if any; [cancel] sets its flag *)
  on_done : answer -> unit;
}

type decompose = {
  threshold_clauses : int;
  decompose_jobs : int;
  depth : int;
  cutoff : int;
}

type submit_error = Overloaded | Draining

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;  (* workers wait here for queue items *)
  idle : Condition.t;  (* drain waits here for quiescence *)
  queue : job Queue.t;
  max_queue : int;
  max_conflicts_cap : int option;
  decompose : decompose option;
  autotune : bool;
  cache : Cache.t;
  njobs : int;
  mutable workers : unit Domain.t array;
  mutable inflight : int;
  mutable stop : bool;
  mutable draining : bool;
  (* counters, all under [lock] *)
  mutable queries : int;
  mutable cancelled_n : int;
  mutable timeouts : int;
  mutable overloaded_n : int;
  mutable errors : int;
  mutable peak_queue : int;
  mutable decomposed_n : int;
  mutable autotuned_n : int;
  (* per-tenant metric registries, under their own lock so a slow
     merge never blocks admission *)
  tenants_lock : Mutex.t;
  tenants : (string, Sat.Metrics.t) Hashtbl.t;
}

let queue_depth t =
  Mutex.lock t.lock;
  let n = Queue.length t.queue in
  Mutex.unlock t.lock;
  n

let inflight t =
  Mutex.lock t.lock;
  let n = t.inflight in
  Mutex.unlock t.lock;
  n

let jobs t = t.njobs
let cache t = t.cache

let draining t =
  Mutex.lock t.lock;
  let d = t.draining in
  Mutex.unlock t.lock;
  d

let set_draining t =
  Mutex.lock t.lock;
  t.draining <- true;
  Mutex.unlock t.lock

let quiescent t =
  Mutex.lock t.lock;
  let q = Queue.is_empty t.queue && t.inflight = 0 in
  Mutex.unlock t.lock;
  q

(* --- the worker ----------------------------------------------------------- *)

let combine_budget a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some p, Some q -> Some (min p q)

let finished t job answer counted =
  Mutex.lock t.lock;
  counted t;
  Mutex.unlock t.lock;
  job.on_done answer

let no_search outcome =
  {
    outcome;
    cached = false;
    warm = false;
    matched_prefix = 0;
    time_s = 0.;
    conflicts = 0;
    decisions = 0;
  }

(* merge one query's registry into its tenant's rollup *)
let roll_up t tenant reg =
  Mutex.lock t.tenants_lock;
  let into =
    match Hashtbl.find_opt t.tenants tenant with
    | Some m -> m
    | None ->
      let m = Sat.Metrics.create () in
      Hashtbl.add t.tenants tenant m;
      m
  in
  Sat.Metrics.merge_into ~into reg;
  Mutex.unlock t.tenants_lock

(* A job token's flag is set only by [cancel], so a stopped search's
   "interrupted" is the client's cancellation. *)
let relabel = function T.Unknown "interrupted" -> T.Unknown "cancelled" | o -> o

let count_outcome t = function
  | T.Unknown "cancelled" -> t.cancelled_n <- t.cancelled_n + 1
  | T.Unknown "timeout" -> t.timeouts <- t.timeouts + 1
  | _ -> ()

(* An oversized unbudgeted query bypasses the warm-session pool and is
   decomposed by cube-and-conquer across its own worker domains; the
   result still lands in the result cache. *)
let process_decomposed t job d ~full ~nclauses ~t0 =
  let p = job.params in
  let f =
    Cnf.Formula.of_clauses
      (List.map Cnf.Clause.of_dimacs_list p.Protocol.clauses)
  in
  let reg = Sat.Metrics.create () in
  let options =
    { Sat.Conquer.default_options with
      Sat.Conquer.jobs = d.decompose_jobs;
      cube = { Sat.Cube.default_options with Sat.Cube.depth = d.depth };
      config = Cache.config t.cache;
      cutoff = d.cutoff;
      metrics = Some reg }
  in
  let r = Sat.Conquer.solve ~stop:job.stop ~options f in
  let outcome = relabel r.Sat.Conquer.outcome in
  if p.use_cache then
    Cache.store_result t.cache ~hash:full ~nclauses
      ~assumptions:p.assumptions outcome;
  roll_up t p.tenant reg;
  let st = r.Sat.Conquer.stats in
  finished t job
    {
      outcome;
      cached = false;
      warm = false;
      matched_prefix = 0;
      time_s = Sat.Monotime.now_s () -. t0;
      conflicts = st.T.conflicts;
      decisions = st.T.decisions;
    }
    (fun t ->
       t.queries <- t.queries + 1;
       t.decomposed_n <- t.decomposed_n + 1;
       count_outcome t outcome)

let process t job =
  let p = job.params in
  match Sat.Stop.reason job.stop with
  | Some why ->
    let outcome = relabel (T.Unknown why) in
    finished t job (no_search outcome) (fun t -> count_outcome t outcome)
  | None ->
    let t0 = Sat.Monotime.now_s () in
    let nclauses = List.length p.clauses in
    let hashes = Fhash.prefix_hashes p.clauses in
    let full = hashes.(nclauses) in
    match
      if p.use_cache then
        Cache.find_result t.cache ~hash:full ~nclauses
          ~assumptions:p.assumptions
      else None
    with
    | Some outcome ->
      finished t job
        { (no_search outcome) with
          cached = true;
          time_s = Sat.Monotime.now_s () -. t0 }
        (fun t -> t.queries <- t.queries + 1)
    | None -> (
      match t.decompose with
      | Some d
        when nclauses >= d.threshold_clauses
             && p.assumptions = []
             && combine_budget p.max_conflicts t.max_conflicts_cap = None
             && p.max_decisions = None ->
        (* budgeted queries keep their exact budget semantics on the
           incremental path; only unbudgeted assumption-free bulk
           queries decompose *)
        process_decomposed t job d ~full ~nclauses ~t0
      | _ ->
      (* take a warm session holding a prefix, or start cold.  A cold
         unbudgeted query may be auto-tuned: measure the formula, pick
         restart schedule / inprocessing / guidance from the decision
         table (docs/TUNING.md) at jobs=1 — the engine choice is the
         scheduler's own.  Warm sessions keep their existing
         configuration: their value is the carried-over solver state. *)
      let autotune_cold () =
        if
          (not t.autotune)
          || combine_budget p.max_conflicts t.max_conflicts_cap <> None
          || p.max_decisions <> None
        then None
        else begin
          let f =
            Cnf.Formula.of_clauses
              (List.map Cnf.Clause.of_dimacs_list p.clauses)
          in
          let ft = Sat.Autotune.extract ~probes:16 f in
          let pol = Sat.Autotune.select ~jobs:1 ft in
          Some (f, pol)
        end
      in
      let sess, matched, tuned =
        match
          if p.use_cache then Cache.checkout t.cache hashes else None
        with
        | Some (sess, i) -> (sess, i, None)
        | None -> (
          match autotune_cold () with
          | Some (_, pol) as tuned ->
            let config =
              { (Cache.config t.cache) with
                T.restarts = pol.Sat.Autotune.restarts;
                inprocessing = pol.Sat.Autotune.inprocessing }
            in
            (Sat.Session.create ~config (), 0, tuned)
          | None ->
            (Sat.Session.create ~config:(Cache.config t.cache) (), 0, None))
      in
      let reg = Sat.Metrics.create () in
      Sat.Session.attach_metrics sess reg;
      (* grow the session to the full clause sequence *)
      let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
      List.iter
        (fun c ->
           Sat.Session.add_clause sess (List.map Cnf.Lit.of_dimacs c))
        (drop matched p.clauses);
      (* guidance seeds need the variables to exist, i.e. after the
         clauses are in *)
      (match tuned with
       | Some (f, pol) when pol.Sat.Autotune.guided ->
         Sat.Session.apply_guidance sess (Sat.Guide.of_formula f)
       | Some _ | None -> ());
      let assumptions = List.map Cnf.Lit.of_dimacs p.assumptions in
      let max_conflicts = combine_budget p.max_conflicts t.max_conflicts_cap in
      let outcome =
        relabel
          (Sat.Session.solve ~stop:job.stop ~assumptions ?max_conflicts
             ?max_decisions:p.max_decisions sess)
      in
      let st = Sat.Session.last_stats sess in
      let answer =
        {
          outcome;
          cached = false;
          warm = matched > 0;
          matched_prefix = matched;
          time_s = Sat.Monotime.now_s () -. t0;
          conflicts = st.T.conflicts;
          decisions = st.T.decisions;
        }
      in
      if p.use_cache then begin
        Cache.store_result t.cache ~hash:full ~nclauses
          ~assumptions:p.assumptions outcome;
        Cache.checkin t.cache ~hash:full ~nclauses sess
      end;
      roll_up t p.tenant reg;
      finished t job answer (fun t ->
          t.queries <- t.queries + 1;
          if tuned <> None then t.autotuned_n <- t.autotuned_n + 1;
          count_outcome t outcome))

let worker t =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stop do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue then begin
      (* stop requested and nothing left to do *)
      Mutex.unlock t.lock;
      ()
    end
    else begin
      let job = Queue.pop t.queue in
      t.inflight <- t.inflight + 1;
      Mutex.unlock t.lock;
      (try process t job
       with e ->
         (* the query dies, the worker and the daemon survive *)
         Mutex.lock t.lock;
         t.errors <- t.errors + 1;
         Mutex.unlock t.lock;
         (try
            job.on_done
              (no_search
                 (T.Unknown ("error: " ^ Printexc.to_string e)))
          with _ -> ()));
      Mutex.lock t.lock;
      t.inflight <- t.inflight - 1;
      if t.inflight = 0 && Queue.is_empty t.queue then
        Condition.broadcast t.idle;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

(* --- lifecycle ------------------------------------------------------------ *)

let create ?jobs ?(max_queue = 128) ?max_conflicts_cap ?decompose
    ?(autotune = false) ?cache () =
  let njobs =
    match jobs with
    | Some n -> max 1 n
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      max_queue;
      max_conflicts_cap;
      decompose;
      autotune;
      cache = (match cache with Some c -> c | None -> Cache.create ());
      njobs;
      workers = [||];
      inflight = 0;
      stop = false;
      draining = false;
      queries = 0;
      cancelled_n = 0;
      timeouts = 0;
      overloaded_n = 0;
      errors = 0;
      peak_queue = 0;
      decomposed_n = 0;
      autotuned_n = 0;
      tenants_lock = Mutex.create ();
      tenants = Hashtbl.create 8;
    }
  in
  t.workers <- Array.init njobs (fun _ -> Domain.spawn (fun () -> worker t));
  t

let submit t ?deadline ~on_done params =
  let job = { params; stop = Sat.Stop.create ?deadline (); on_done } in
  Mutex.lock t.lock;
  let verdict =
    if t.draining || t.stop then Error Draining
    else if Queue.length t.queue >= t.max_queue then begin
      t.overloaded_n <- t.overloaded_n + 1;
      Error Overloaded
    end
    else begin
      Queue.add job t.queue;
      t.peak_queue <- max t.peak_queue (Queue.length t.queue);
      Condition.signal t.nonempty;
      Ok job
    end
  in
  Mutex.unlock t.lock;
  verdict

let cancel _t (job : job) = Sat.Stop.cancel job.stop

let solve t params =
  let m = Mutex.create () in
  let c = Condition.create () in
  let cell = ref None in
  let on_done a =
    Mutex.lock m;
    cell := Some a;
    Condition.signal c;
    Mutex.unlock m
  in
  match submit t ~on_done params with
  | Error e -> Error e
  | Ok _ ->
    Mutex.lock m;
    while Option.is_none !cell do
      Condition.wait c m
    done;
    Mutex.unlock m;
    Ok (Option.get !cell)

let drain t =
  Mutex.lock t.lock;
  t.draining <- true;
  while not (Queue.is_empty t.queue && t.inflight = 0) do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock

let shutdown t =
  drain t;
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

(* --- stats ---------------------------------------------------------------- *)

let stats_json t =
  Mutex.lock t.lock;
  let service =
    J.Obj
      [
        ("jobs", J.Int t.njobs);
        ("queries", J.Int t.queries);
        ("cancelled", J.Int t.cancelled_n);
        ("timeouts", J.Int t.timeouts);
        ("overloaded", J.Int t.overloaded_n);
        ("errors", J.Int t.errors);
        ("decomposed", J.Int t.decomposed_n);
        ("autotuned", J.Int t.autotuned_n);
        ("queue_depth", J.Int (Queue.length t.queue));
        ("peak_queue_depth", J.Int t.peak_queue);
        ("inflight", J.Int t.inflight);
        ("draining", J.Bool t.draining);
      ]
  in
  Mutex.unlock t.lock;
  Mutex.lock t.tenants_lock;
  let tenants =
    Hashtbl.fold
      (fun name reg acc -> (name, Sat.Metrics.to_json reg) :: acc)
      t.tenants []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Mutex.unlock t.tenants_lock;
  J.Obj
    [
      ("service", service);
      ("cache", Cache.stats_json t.cache);
      ("tenants", J.Obj tenants);
    ]
