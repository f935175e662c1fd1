(* cec-fraig: Eda.Sweep.check on a suite of XOR-rewritten multiplier
   pairs, cross-architecture multiplier and adder pairs, and mutant pairs
   whose counterexample is re-simulated.  Thousands of tiny incremental
   queries; big search does almost nothing. *)

module G = Circuit.Generators
module T = Circuit.Transform

let name = "cec-fraig"
let seeded = [ "sweep.sat_calls"; "cdcl.conflicts"; "cdcl.decisions"; "cdcl.propagations" ]
let tail_percentile = 90. (* 165-255 verdicts in a 30 s run *)

type pair = {
  label : string;
  a : Circuit.Netlist.t;
  b : Circuit.Netlist.t;
  mutable expect : Oracle.answer;
}

type t = { pairs : pair array }

(* The seed restyles the rewritten side and picks the mutant; the pair
   stays equivalent (or, for the mutant, inequivalent) by construction.
   Pairs are built in list order, so each draws from the seed's stream
   in a fixed order. *)
let setup ~seed ~short =
  let st = Gen.state seed name in
  let pair label a b expect = { label; a; b; expect } in
  let make = function
    | `Xor (family, gen, bits) ->
      pair (Printf.sprintf "%s%d" family bits) (gen ~bits)
        (Gen.restyle st (T.rewrite_xor (gen ~bits))) Oracle.Unsat
    | `Cross bits ->
      pair (Printf.sprintf "mult%d-wallace%d" bits bits) (G.multiplier ~bits)
        (Gen.restyle st (G.wallace_multiplier ~bits)) Oracle.Unsat
    | `Adder bits ->
      pair (Printf.sprintf "ripple%d-kogge%d" bits bits) (G.ripple_adder ~bits)
        (Gen.restyle st (G.kogge_stone_adder ~bits)) Oracle.Unsat
    | `Bug bits ->
      let c = G.wallace_multiplier ~bits in
      pair (Printf.sprintf "wallace%d-bug" bits) c (fst (Gen.buggy st c)) Oracle.Sat
  in
  let specs =
    if short then [ `Xor ("mult-xor", G.multiplier, 3); `Cross 3; `Bug 3 ]
    else
      [ `Xor ("wall-xor", G.wallace_multiplier, 20);
        `Xor ("wall-xor", G.wallace_multiplier, 16);
        `Xor ("mult-xor", G.multiplier, 14); `Xor ("mult-xor", G.multiplier, 12);
        `Xor ("mult-xor", G.multiplier, 10); `Xor ("mult-xor", G.multiplier, 8);
        `Cross 5; `Cross 4; `Cross 3; `Adder 32; `Adder 16;
        `Bug 8; `Bug 7; `Bug 6; `Bug 5 ]
  in
  { pairs = Array.of_list (List.rev (List.fold_left (fun acc s -> make s :: acc) [] specs)) }

let prepare _ = ()
let sabotage t = t.pairs.(0).expect <- Oracle.flip t.pairs.(0).expect

let run_one (ctx : Harness.ctx) job rid p =
  let sp name f = Span.with_ ctx.spans ~parent:job ~rid name (fun _ -> f ()) in
  let l = ctx.layers in
  let r = sp "sweep" (fun () -> Cdcl_layer.gc ctx (fun () -> Eda.Sweep.check p.a p.b)) in
  let s = r.Eda.Sweep.stats and tm = r.Eda.Sweep.times in
  Layers.add l "sweep.sat_calls" (float s.Eda.Sweep.sat_calls);
  Layers.add l "sweep.merges" (float s.Eda.Sweep.merges);
  Layers.add l "sweep.candidates" (float s.Eda.Sweep.candidates);
  Layers.add l "sweep.conflicts" (float s.Eda.Sweep.conflicts);
  Layers.add l "sweep.simulate_s" tm.Eda.Sweep.simulate_s;
  Layers.add l "sweep.refine_s" tm.Eda.Sweep.refine_s;
  Layers.add l "sweep.prove_s" tm.Eda.Sweep.prove_s;
  Layers.add l "sweep.total_s" tm.Eda.Sweep.total_s;
  Option.iter (Cdcl_layer.stats l) r.Eda.Sweep.solver_stats;
  let ok =
    match r.Eda.Sweep.verdict, p.expect with
    | Eda.Verdict.Equivalent, Oracle.Unsat -> true
    | Eda.Verdict.Inequivalent cex, Oracle.Sat ->
      sp "simulate" (fun () ->
          Circuit.Simulate.eval_outputs p.a cex
          <> Circuit.Simulate.eval_outputs p.b cex)
    | _ -> false
  in
  Harness.checked name p.label ok

let stage _ _ = ()

let pass t (ctx : Harness.ctx) = Harness.jobs t.pairs ctx (run_one ctx)

(* The incremental SAT queries are the search, so [cdcl.search_s] is
   [sweep.prove_s]; the probe kernel runs on each pair's miter CNF. *)
let finish t l ~span_self:_ ~passes =
  let pp k = Layers.sum l k /. float passes in
  let sim = pp "sweep.simulate_s" and refine = pp "sweep.refine_s" in
  let prove = pp "sweep.prove_s" in
  [ ("sweep.simulate_s", sim); ("sweep.refine_s", refine);
    ("sweep.prove_s", prove);
    ("sweep.other_s", pp "sweep.total_s" -. sim -. refine -. prove);
    ("sweep.sat_calls", pp "sweep.sat_calls");
    ("sweep.us_per_sat_call", 1e6 *. Layers.ratio prove (pp "sweep.sat_calls"));
    ("sweep.merge_frac", Layers.ratio (pp "sweep.merges") (pp "sweep.candidates"));
    ("sweep.conflicts", pp "sweep.conflicts") ]
  @ Cdcl_layer.finish ~pp ~search_s:prove
      (Array.to_list (Array.map (fun p -> Gen.miter p.a p.b) t.pairs))

let cpu _ = Harness.self_cpu ()
let peak_rss_mb _ = Harness.peak_rss_mb "self"
let close _ = ()
