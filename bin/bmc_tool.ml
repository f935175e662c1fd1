(* Bounded model checking of sequential circuits: either the built-in
   counter family or an ISCAS-89-style BENCH file with DFFs.

   bmc_tool [--bits N] [--buggy-at K] [--bound B] [--bench FILE --bad OUT]
            [--inprocess] [--guide] [--timeout SECS]
            [--metrics FILE.json] [--trace FILE.jsonl]
   bmc_tool --induction ... additionally attempts a k-induction proof.

   There is no --no-elim here: the incremental BMC encoder grows the
   formula frame by frame inside a session, where bounded variable
   elimination is never applied (see Solver.Incremental). *)

open Cmdliner

let run bits buggy_at bound bench bad induction explain from_scratch stats
    inprocess guide timeout metrics_path trace_path =
  let obs = Obs.setup ~tool:"bmc_tool" metrics_path trace_path in
  let config =
    { Sat.Types.default with Sat.Types.inprocessing = inprocess }
  in
  let seq =
    match bench with
    | Some path -> Circuit.Bench_format.parse_sequential_file path
    | None -> Circuit.Sequential.counter ~bits ~buggy_at
  in
  if induction then begin
    match
      Eda.Bmc.prove_inductive ?metrics:obs.Obs.metrics ~config ~bad_output:bad
        ~max_k:bound seq
    with
    | Eda.Bmc.Proved k -> Printf.printf "PROVED for all depths (k=%d)\n" k
    | Eda.Bmc.Refuted frames ->
      Printf.printf "REFUTED: counterexample of length %d\n"
        (List.length frames)
    | Eda.Bmc.Bound_reached ->
      Printf.printf "inconclusive up to k=%d\n" bound
  end;
  let r =
    Eda.Bmc.check ?metrics:obs.Obs.metrics ?trace:obs.Obs.trace ~config
      ~incremental:(not from_scratch) ~bad_output:bad ~guide
      ?stop:(Option.map Sat.Stop.after timeout) ~max_bound:bound seq
  in
  (match r.Eda.Bmc.result with
   | Eda.Bmc.Counterexample frames ->
     Printf.printf "counterexample of length %d:\n" (List.length frames);
     List.iteri
       (fun t f ->
          Printf.printf "  cycle %d: enable=%b\n" t f.(0))
       frames
   | Eda.Bmc.No_counterexample when r.Eda.Bmc.timed_out ->
     Printf.printf "UNKNOWN (timeout): no counterexample up to bound %d\n"
       (r.Eda.Bmc.bound_reached - 1)
   | Eda.Bmc.No_counterexample ->
     Printf.printf "no counterexample up to bound %d\n" r.Eda.Bmc.bound_reached);
  (match r.Eda.Bmc.result with
   | Eda.Bmc.No_counterexample
     when explain && r.Eda.Bmc.bound_reached >= 1 && not r.Eda.Bmc.timed_out
     -> (
     (* core-driven assumption minimization: which frames' transition
        logic does the final bound's refutation actually rest on? *)
     let b = r.Eda.Bmc.bound_reached in
     match Eda.Bmc.explain_bound ~config ~bad_output:bad ~bound:b seq with
     | Some frames ->
       Printf.printf "unreachability at bound %d depends on frames {%s}\n"
         (b - 1)
         (String.concat ", " (List.map string_of_int frames))
     | None -> print_endline "explain: counterexample found on re-encode")
   | _ -> ());
  if stats then begin
    Printf.printf "per-bound query stats (%s):\n"
      (if from_scratch then "from-scratch" else "incremental");
    Printf.printf "  %5s %10s %10s %12s %9s\n" "bound" "decisions" "conflicts"
      "propagations" "restarts";
    List.iter
      (fun (k, (st : Sat.Types.stats)) ->
         Printf.printf "  %5d %10d %10d %12d %9d\n" k st.Sat.Types.decisions
           st.Sat.Types.conflicts st.Sat.Types.propagations
           st.Sat.Types.restarts_done)
      r.Eda.Bmc.per_bound_stats;
    let t = r.Eda.Bmc.total_stats in
    Printf.printf "  %5s %10d %10d %12d %9d\n" "total" t.Sat.Types.decisions
      t.Sat.Types.conflicts t.Sat.Types.propagations t.Sat.Types.restarts_done;
    Printf.printf "frames encoded: %d\n" r.Eda.Bmc.frames_encoded;
    if t.Sat.Types.interrupts > 0 then
      Printf.printf "interrupted queries: %d\n" t.Sat.Types.interrupts
  end;
  Printf.printf "time %.3fs\n" r.Eda.Bmc.time_seconds

let bits = Arg.(value & opt int 4 & info [ "bits" ] ~doc:"counter width")

let buggy_at =
  Arg.(value & opt (some int) None & info [ "buggy-at" ] ~doc:"inject a jump bug at this count")

let bound = Arg.(value & opt int 20 & info [ "bound" ] ~doc:"maximum unrolling depth")

let bench =
  Arg.(value & opt (some file) None & info [ "bench" ] ~doc:"sequential BENCH netlist")

let bad =
  Arg.(value & opt string "bad" & info [ "bad" ] ~doc:"property output name")

let induction =
  Arg.(value & flag & info [ "induction" ] ~doc:"also attempt a k-induction proof")

let explain =
  Arg.(value & flag
       & info [ "explain" ]
         ~doc:"after a counterexample-free run, minimize the final \
               bound's assumptions (per-frame activation literals) to \
               report which frames the unreachability proof depends on")

let from_scratch =
  Arg.(value & flag
       & info [ "from-scratch" ]
         ~doc:"re-encode and re-solve every bound with a fresh solver")

let stats =
  Arg.(value & flag & info [ "stats" ] ~doc:"print per-bound query statistics")

let inprocess =
  Arg.(value & flag
       & info [ "inprocess" ]
         ~doc:"simplify the learnt-clause database during search")

let guide =
  Arg.(value & flag
       & info [ "guide" ]
         ~doc:"seed each newly encoded frame's activities and phases from \
               one simulation pass over the transition logic \
               (docs/TUNING.md); heuristic only")

let timeout =
  Arg.(value & opt (some float) None
       & info [ "timeout" ]
         ~doc:"wall-clock limit in seconds for the bounded check; partial \
               per-bound statistics are still reported")

let cmd =
  Cmd.v
    (Cmd.info "bmc_tool" ~doc:"bounded model checker demo")
    Term.(const run $ bits $ buggy_at $ bound $ bench $ bad $ induction
          $ explain $ from_scratch $ stats $ inprocess $ guide $ timeout
          $ Obs.metrics_term $ Obs.trace_term)

let () = exit (Cmd.eval cmd)
