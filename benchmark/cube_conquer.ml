(* cube-conquer: Sat.Conquer.solve at two worker domains (one on a
   single-core host), the shape of satsolve --cube-conquer, on an UNSAT
   miter and random 3-SAT.  The only workload that runs Cube, Conquer and
   clause sharing, and the heaviest search. *)

module G = Circuit.Generators

let name = "cube-conquer"
let seeded = [ "cube.cubes"; "cube.probes" ]
let tail_percentile = 50. (* 75-90 verdicts in a 30 s run *)
let jobs = min 2 (Domain.recommended_domain_count ())

type t = Batch.t

let options =
  { Sat.Conquer.default_options with
    Sat.Conquer.jobs;
    cube = { Sat.Cube.default_options with Sat.Cube.seed = 1 };
    config = Sat.Types.default }

(* A fixed UNSAT miter and seeded random 3-SAT at ratio 4.26 with a fixed
   SAT/UNSAT mix (see Cert_batch.setup). *)
let setup ~seed ~short =
  let st = Gen.state seed name in
  let bits = if short then 3 else 7 in
  let miter =
    (Printf.sprintf "mult%d-wallace%d" bits bits,
     Gen.miter (G.multiplier ~bits) (G.wallace_multiplier ~bits), Oracle.Unsat)
  in
  let nvars, k = if short then (40, 1) else (150, 2) in
  Batch.create [ miter ] (Oracle.pool st ~nvars ~ratio:4.26 ~sat:k ~unsat:k)

let prepare = Batch.prepare
let sabotage = Batch.sabotage

let run_one (ctx : Harness.ctx) job rid inp =
  let sp name f = Span.with_ ctx.spans ~parent:job ~rid name (fun _ -> f ()) in
  let l = ctx.layers in
  let f = sp "dimacs" (fun () -> Cnf.Dimacs.parse_string inp.Batch.text) in
  Layers.add l "dimacs.bytes" (float (String.length inp.Batch.text));
  let c0 = Harness.self_cpu () and t0 = Clock.now () in
  let r = sp "conquer" (fun () -> Cdcl_layer.gc ctx (fun () -> Sat.Conquer.solve ~options f)) in
  Layers.add l "conquer.cpu" (Harness.self_cpu () -. c0);
  Layers.add l "conquer.wall" (Clock.now () -. t0);
  let la = r.Sat.Conquer.lookahead in
  Layers.add l "cube.generate_s" la.Sat.Cube.time_seconds;
  Layers.add l "cube.cubes" (float (List.length la.Sat.Cube.cubes));
  Layers.add l "cube.probes" (float la.Sat.Cube.probes);
  Layers.add l "conquer.s" (r.Sat.Conquer.time_seconds -. la.Sat.Cube.time_seconds);
  Layers.add l "conquer.solved_cubes" (float r.Sat.Conquer.solved_cubes);
  Layers.add l "conquer.splits" (float r.Sat.Conquer.splits);
  Layers.add l "conquer.pool_size" (float r.Sat.Conquer.pool_size);
  Cdcl_layer.stats l r.Sat.Conquer.stats;
  let verdict =
    match r.Sat.Conquer.outcome with
    | Sat.Types.Sat m ->
      if sp "model.eval" (fun () -> Oracle.eval_model f m) then Some Oracle.Sat else None
    | Sat.Types.Unsat -> Some Oracle.Unsat
    | Sat.Types.Unsat_assuming _ | Sat.Types.Unknown _ -> None
  in
  Harness.checked name inp.Batch.label (verdict = Some inp.Batch.expect)

let stage _ _ = ()

let pass t (ctx : Harness.ctx) = Harness.jobs t.Batch.inputs ctx (run_one ctx)

(* The conquer phase is the search, so [cdcl.search_s] is [conquer.s] and
   [cdcl.props_per_s] is the propagation rate of all workers together. *)
let finish t l ~span_self ~passes =
  let pp k = Layers.sum l k /. float passes in
  List.map (fun k -> (k, pp k))
    [ "cube.generate_s"; "cube.cubes"; "cube.probes"; "conquer.s";
      "conquer.solved_cubes"; "conquer.splits"; "conquer.pool_size" ]
  @ [ ("conquer.cpu_util",
       Layers.ratio (pp "conquer.cpu") (pp "conquer.wall" *. float jobs));
      ("dimacs.mb_per_s", Layers.ratio (pp "dimacs.bytes" /. 1e6) (span_self "dimacs")) ]
  @ Cdcl_layer.finish ~pp ~search_s:(pp "conquer.s") (Batch.formulas t)

let cpu _ = Harness.self_cpu ()
let peak_rss_mb _ = Harness.peak_rss_mb "self"
let close _ = ()
