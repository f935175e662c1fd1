(* The Sat.Cdcl row of the per-layer table, shared by every workload that
   searches: the solver's counters, allocation and major collections
   around a solve, and the bechamel probe kernel. *)

let stats l (s : Sat.Types.stats) =
  Layers.add l "cdcl.conflicts" (float s.Sat.Types.conflicts);
  Layers.add l "cdcl.decisions" (float s.Sat.Types.decisions);
  Layers.add l "cdcl.propagations" (float s.Sat.Types.propagations)

(* Runs [f] and, in a traced pass, adds the words it allocated and the
   major collections it caused.  [Gc.quick_stat] counts every domain, so
   this includes the worker domains a parallel solve joins before it
   returns. *)
let gc (ctx : Harness.ctx) f =
  if not (Span.enabled ctx.spans) then f ()
  else begin
    let s0 = Gc.quick_stat () in
    let v = f () in
    let s1 = Gc.quick_stat () in
    Layers.add ctx.layers "gc.minor_words" (s1.Gc.minor_words -. s0.Gc.minor_words);
    Layers.add ctx.layers "gc.major_collections"
      (float (s1.Gc.major_collections - s0.Gc.major_collections));
    v
  end

(* ns per probe_push/probe_pop pair over the first 64 variables' positive
   literals, by a bechamel OLS fit on the monotonic clock.  None when
   root propagation already refutes [f]. *)
let probe_ns f =
  let open Bechamel in
  let s = Sat.Cdcl.create f in
  if not (Sat.Cdcl.propagate_root s) then None
  else
    let lits = List.init (min 64 (Cnf.Formula.nvars f)) Cnf.Lit.pos in
    let kernel () =
      List.iter
        (fun lit ->
          match Sat.Cdcl.probe_push s lit with
          | Sat.Cdcl.Probe_ok _ -> Sat.Cdcl.probe_pop s
          | Sat.Cdcl.Probe_conflict -> ())
        lits
    in
    let test = Test.make ~name:"probe" (Staged.stage kernel) in
    let clock = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.1) ~kde:None () in
    let raw = Benchmark.all cfg [ clock ] test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Hashtbl.fold
      (fun _ v acc ->
        match Analyze.OLS.estimates v with
        | Some (e :: _) -> Some (e /. float (List.length lits))
        | Some [] | None -> acc)
      (Analyze.all ols clock raw) None

(* The row's metrics for one traced window.  [pp] gives a per-pass sum,
   [search_s] the workload's search time per pass, and [formulas] the
   instances the probe kernel runs on (the median over them is kept). *)
let finish ~pp ~search_s formulas =
  let conflicts = pp "cdcl.conflicts" in
  let probes = List.filter_map probe_ns formulas in
  [ ("cdcl.search_s", search_s);
    ("cdcl.conflicts", conflicts);
    ("cdcl.decisions", pp "cdcl.decisions");
    ("cdcl.propagations", pp "cdcl.propagations");
    ("cdcl.props_per_s", Layers.ratio (pp "cdcl.propagations") search_s);
    ("cdcl.probe_ns", if probes = [] then 0. else Stats.median probes);
    ("gc.minor_words_per_conflict", Layers.ratio (pp "gc.minor_words") conflicts);
    ("gc.major_collections", pp "gc.major_collections") ]
