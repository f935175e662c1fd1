(* cert-batch: DIMACS text -> full pipeline with inprocessing and proof
   logging -> backward trim -> LRAT replay; SAT models evaluated against
   the formula.  The proof layer does most of the work here. *)

module G = Circuit.Generators

let name = "cert-batch"
let seeded = [ "cdcl.conflicts"; "cdcl.decisions"; "cdcl.propagations"; "proof.steps" ]
let tail_percentile = 90. (* 950-1250 verdicts in a 30 s run *)

type t = Batch.t

let config =
  { Sat.Types.default with Sat.Types.proof_logging = true; inprocessing = true }

let engine = Sat.Solver.Cdcl config

(* Fixed UNSAT miters of two architectures, one mutant miter drawn by the
   seed, and seeded random 3-SAT at ratio 4.26 with a fixed SAT/UNSAT
   mix.  The miters are fixed families, like a benchmark suite; the seed
   draws the random part, and enough of it that the pass time does not
   swing with a lucky or unlucky draw. *)
let setup ~seed ~short =
  let st = Gen.state seed name in
  let miters =
    List.map
      (fun (label, a, b) -> (label, Gen.miter a b, Oracle.Unsat))
      (if short then [ ("mult3-wallace3", G.multiplier ~bits:3, G.wallace_multiplier ~bits:3) ]
       else
         [ ("mult5-wallace5", G.multiplier ~bits:5, G.wallace_multiplier ~bits:5);
           ("ripple32-kogge32", G.ripple_adder ~bits:32, G.kogge_stone_adder ~bits:32) ])
  in
  let bug =
    let c = G.wallace_multiplier ~bits:(if short then 3 else 5) in
    ("wallace-bug", Gen.miter c (fst (Gen.buggy st c)), Oracle.Sat)
  in
  let nvars, k = if short then (40, 1) else (100, 20) in
  Batch.create (miters @ [ bug ]) (Oracle.pool st ~nvars ~ratio:4.26 ~sat:k ~unsat:k)

let prepare = Batch.prepare
let sabotage = Batch.sabotage

let timer m n = Sat.Metrics.timer_seconds (Sat.Metrics.timer m n)
let count m n = float (Sat.Metrics.counter_value (Sat.Metrics.counter m n))

let run_one (ctx : Harness.ctx) job rid inp =
  let sp name f = Span.with_ ctx.spans ~parent:job ~rid name (fun _ -> f ()) in
  let l = ctx.layers in
  let f = sp "dimacs" (fun () -> Cnf.Dimacs.parse_string inp.Batch.text) in
  let metrics = if Span.enabled ctx.spans then Some (Sat.Metrics.create ()) else None in
  let r =
    sp "solver" (fun () ->
        Cdcl_layer.gc ctx (fun () ->
            Sat.Solver.solve ?metrics ~engine ~pipeline:Sat.Solver.full_pipeline f))
  in
  Option.iter
    (fun m ->
      Layers.add l "dimacs.bytes" (float (String.length inp.Batch.text));
      Layers.add l "preprocess.s" (timer m "pipeline/preprocess");
      Layers.add l "cdcl.search_s" (timer m "solve");
      Layers.add l "preprocess.vars_eliminated" (count m "preprocess/vars_eliminated");
      Layers.add l "preprocess.clauses_removed" (count m "preprocess/clauses_removed"))
    metrics;
  Option.iter (Cdcl_layer.stats l) r.Sat.Solver.solver_stats;
  let steps = Option.value ~default:[] r.Sat.Solver.proof in
  Layers.add l "proof.steps" (float (List.length steps));
  let verdict =
    match r.Sat.Solver.outcome with
    | Sat.Types.Sat m ->
      if sp "model.eval" (fun () -> Oracle.eval_model f m) then Some Oracle.Sat else None
    | Sat.Types.Unsat -> (
      match
        Oracle.check_refutation ~trim:(sp "proof.trim") ~check:(sp "proof.check") f steps
      with
      | Some (kept, total) ->
        Layers.add l "proof.kept" (float kept);
        Layers.add l "proof.adds" (float total);
        Some Oracle.Unsat
      | None -> None)
    | Sat.Types.Unsat_assuming _ | Sat.Types.Unknown _ -> None
  in
  Harness.checked name inp.Batch.label (verdict = Some inp.Batch.expect)

let stage _ _ = ()

let pass t (ctx : Harness.ctx) = Harness.jobs t.Batch.inputs ctx (run_one ctx)

(* dimacs.parse_s, proof.trim_s, proof.lrat_check_s and model.eval_s are
   span self times; the harness names them (Layers.span_named). *)
let finish t l ~span_self ~passes =
  let pp k = Layers.sum l k /. float passes in
  [ ("dimacs.mb_per_s", Layers.ratio (pp "dimacs.bytes" /. 1e6) (span_self "dimacs"));
    ("preprocess.s", pp "preprocess.s");
    ("preprocess.vars_eliminated", pp "preprocess.vars_eliminated");
    ("preprocess.clauses_removed", pp "preprocess.clauses_removed") ]
  @ Cdcl_layer.finish ~pp ~search_s:(pp "cdcl.search_s") (Batch.formulas t)
  @ [ ("proof.steps", pp "proof.steps");
      ("proof.kept_frac", Layers.ratio (pp "proof.kept") (pp "proof.adds")) ]

let cpu _ = Harness.self_cpu ()
let peak_rss_mb _ = Harness.peak_rss_mb "self"
let close _ = ()
