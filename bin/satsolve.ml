(* DIMACS CNF solver front-end.

   satsolve FILE [--engine cdcl|dpll|walksat] [--preprocess] [--no-elim]
                 [--inprocess] [--equiv] [--rl DEPTH] [--seed N] [--stats]
                 [--jobs N] [--timeout SECS] [--no-share] [--share-lbd N]
                 [--cube-conquer] [--cube-depth N] [--cube-cutoff N]
                 [--auto] [--explain-tuning] [--guide]
                 [--proof FILE] [--check] [--core FILE]
                 [--metrics FILE.json] [--trace FILE.jsonl]              *)

open Cmdliner

(* read all of stdin (a pipe: no length to preallocate) *)
let read_stdin () =
  let b = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let n = input stdin chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes b chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents b

let solve_file path engine_name preprocess no_elim inprocess equiv rl seed
    stats certify jobs timeout no_share share_lbd cube_conquer cube_depth
    cube_cutoff auto explain_tuning guide proof_path check core_path
    metrics_path trace_path =
  let obs = Obs.setup ~tool:"satsolve" metrics_path trace_path in
  let auto = auto || explain_tuning in
  let want_proof = proof_path <> None || check || core_path <> None in
  if want_proof
     && (engine_name <> "cdcl" || jobs > 1 || cube_conquer || timeout <> None)
  then begin
    Printf.eprintf
      "satsolve: --proof/--check/--core need the sequential cdcl engine \
       (no --jobs/--cube-conquer/--timeout): parallel workers import \
       clauses their own proofs cannot justify\n";
    exit 2
  end;
  if auto
     && (want_proof || certify || cube_conquer || engine_name <> "cdcl"
         || timeout <> None)
  then begin
    Printf.eprintf
      "satsolve: --auto picks the engine and pipeline itself; it is \
       incompatible with --proof/--check/--core/--certify/--cube-conquer/\
       --timeout and non-cdcl --engine\n";
    exit 2
  end;
  if auto && guide then begin
    Printf.eprintf
      "satsolve: --auto decides guidance from the decision table; drop \
       --guide\n";
    exit 2
  end;
  let formula =
    if path = "-" then Cnf.Dimacs.parse_string (read_stdin ())
    else if Sys.file_exists path then Cnf.Dimacs.parse_file path
    else begin
      Printf.eprintf "satsolve: no such file %s\n" path;
      exit 2
    end
  in
  let config =
    { Sat.Types.default with
      Sat.Types.random_seed = seed;
      inprocessing = inprocess;
      proof_logging = want_proof }
  in
  let config =
    if guide then begin
      let g = Sat.Guide.of_formula formula in
      Option.iter (fun m -> Sat.Guide.emit_metrics m g) obs.Obs.metrics;
      Sat.Guide.apply_config g config
    end
    else config
  in
  if certify then begin
    let outcome, verdict = Sat.Proof.solve_certified ~config formula in
    (match outcome with
     | Sat.Types.Sat _ -> print_endline "s SATISFIABLE"
     | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ ->
       print_endline "s UNSATISFIABLE"
     | Sat.Types.Unknown why -> Printf.printf "s UNKNOWN (%s)\n" why);
    (match verdict with
     | Sat.Proof.Valid_refutation ->
       print_endline "c proof: valid refutation (UNSAT certified)"
     | Sat.Proof.Valid_derivation ->
       print_endline "c proof: all learned clauses verified"
     | Sat.Proof.Invalid_step i ->
       Printf.printf "c proof: INVALID at step %d\n" i);
    (* SAT-competition exit codes, same as the plain path: an UNSAT
       answer only earns 20 when the refutation checks out *)
    exit
      (match outcome, verdict with
       | Sat.Types.Sat _, _ -> 10
       | (Sat.Types.Unsat | Sat.Types.Unsat_assuming _),
         Sat.Proof.Valid_refutation -> 20
       | Sat.Types.Unknown _, _ -> 0
       | _ -> 2)
  end;
  let solve_manual () =
    let sharing =
      { Sat.Portfolio.default_sharing with
        Sat.Portfolio.share = not no_share;
        max_lbd = share_lbd }
    in
    let engine =
      match engine_name with
      | "cdcl" when cube_conquer ->
        Sat.Solver.Cube_conquer
          {
            Sat.Conquer.default_options with
            Sat.Conquer.jobs = max 1 jobs;
            cube =
              { Sat.Cube.default_options with
                Sat.Cube.depth = cube_depth;
                seed };
            config;
            sharing;
            cutoff = cube_cutoff;
          }
      | "cdcl" ->
        (* --jobs 1 takes the plain sequential path bit-for-bit, with or
           without --timeout *)
        if jobs > 1 then
          Sat.Solver.Portfolio
            {
              Sat.Portfolio.jobs;
              config;
              sharing;
              metrics = None;
              trace = None;
            }
        else Sat.Solver.Cdcl config
      | "dpll" -> Sat.Solver.Dpll config
      | "walksat" ->
        Sat.Solver.Walksat
          { Sat.Local_search.default with Sat.Local_search.seed }
      | other ->
        Printf.eprintf "unknown engine %s (cdcl|dpll|walksat)\n" other;
        exit 2
    in
    if jobs > 1 && engine_name <> "cdcl" then begin
      Printf.eprintf "--jobs requires the cdcl engine\n";
      exit 2
    end;
    if cube_conquer && engine_name <> "cdcl" then begin
      Printf.eprintf "--cube-conquer requires the cdcl engine\n";
      exit 2
    end;
    if timeout <> None && engine_name = "walksat" then begin
      Printf.eprintf "--timeout requires the cdcl or dpll engine\n";
      exit 2
    end;
    let pipeline =
      {
        Sat.Solver.preprocess;
        elim = not no_elim;
        probe_failed_literals = false;
        equivalence = equiv;
        recursive_learning = rl;
      }
    in
    Sat.Solver.solve ?metrics:obs.Obs.metrics ?trace:obs.Obs.trace
      ?stop:(Option.map Sat.Stop.after timeout) ~engine ~pipeline formula
  in
  let report =
    if auto then begin
      let plan, report =
        Sat.Solver.Auto.solve ?metrics:obs.Obs.metrics ?trace:obs.Obs.trace
          ~jobs ~config formula
      in
      if explain_tuning then begin
        List.iter
          (fun (name, v) -> Printf.printf "c autotune feature %s %g\n" name v)
          (Sat.Autotune.feature_fields plan.Sat.Solver.Auto.features);
        let p = plan.Sat.Solver.Auto.policy in
        Printf.printf
          "c autotune policy engine=%s preprocess=%s restarts=%s \
           inprocessing=%b guided=%b\n"
          (Sat.Autotune.engine_label p.Sat.Autotune.engine)
          (Sat.Autotune.preprocess_label p.Sat.Autotune.preprocess)
          (Sat.Autotune.restarts_label p.Sat.Autotune.restarts)
          p.Sat.Autotune.inprocessing p.Sat.Autotune.guided;
        Printf.printf "c autotune rules %s\n"
          (String.concat " " p.Sat.Autotune.reason)
      end;
      report
    end
    else solve_manual ()
  in
  (match report.Sat.Solver.outcome with
   | Sat.Types.Sat m ->
     print_endline "s SATISFIABLE";
     let buf = Buffer.create 256 in
     Buffer.add_string buf "v ";
     Array.iteri
       (fun v b ->
          Buffer.add_string buf (string_of_int (if b then v + 1 else -(v + 1)));
          Buffer.add_char buf ' ')
       m;
     Buffer.add_string buf "0";
     print_endline (Buffer.contents buf)
   | Sat.Types.Unsat -> print_endline "s UNSATISFIABLE"
   | Sat.Types.Unsat_assuming _ -> print_endline "s UNSATISFIABLE"
   | Sat.Types.Unknown why -> Printf.printf "s UNKNOWN (%s)\n" why);
  if stats then begin
    Printf.printf "c time %.4fs\n" report.Sat.Solver.time_seconds;
    (match report.Sat.Solver.solver_stats with
     | Some st -> Format.printf "c %a@." Sat.Types.pp_stats st
     | None -> ());
    (match report.Sat.Solver.preprocess_stats with
     | Some p -> Format.printf "c preprocess %a@." Sat.Preprocess.pp_stats p
     | None -> ());
    if report.Sat.Solver.equivalence_merged > 0 then
      Printf.printf "c equivalence merged %d vars\n"
        report.Sat.Solver.equivalence_merged
  end;
  let steps = Option.value report.Sat.Solver.proof ~default:[] in
  (match proof_path with
   | Some out ->
     Sat.Proof.write_drat_file out steps;
     Printf.printf "c proof: %d steps written to %s\n" (List.length steps) out
   | None -> ());
  (* with --check or --core, an UNSAT answer must survive our own
     backward trim before it earns exit 20 *)
  let verified =
    match report.Sat.Solver.outcome with
    | (Sat.Types.Unsat | Sat.Types.Unsat_assuming _) when check || core_path <> None
      -> (
      match Sat.Proof.trim formula steps with
      | Sat.Proof.Trimmed { lines; core; kept_adds; total_adds } ->
        Printf.printf "c check: refutation verified (%d/%d additions kept)\n"
          kept_adds total_adds;
        (match core_path with
         | Some out ->
           Cnf.Dimacs.write_file out (Sat.Proof.core_formula formula core);
           Printf.printf "c core: %d of %d clauses written to %s\n"
             (List.length core)
             (Cnf.Formula.nclauses formula)
             out
         | None -> ());
        ignore lines;
        true
      | Sat.Proof.Not_refutation ->
        print_endline "c check: FAILED (proof is not a refutation)";
        false
      | Sat.Proof.Trim_invalid i ->
        Printf.printf "c check: FAILED (invalid step %d)\n" i;
        false)
    | _ -> true
  in
  match report.Sat.Solver.outcome with
  | Sat.Types.Sat _ -> exit 10
  | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ ->
    exit (if verified then 20 else 2)
  | Sat.Types.Unknown _ -> exit 0

let file =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"FILE" ~doc:"DIMACS CNF file, or - for stdin")

let engine =
  Arg.(value & opt string "cdcl" & info [ "engine" ] ~doc:"cdcl, dpll or walksat")

let preprocess = Arg.(value & flag & info [ "preprocess" ] ~doc:"enable preprocessing")

let no_elim =
  Arg.(value & flag
       & info [ "no-elim" ]
         ~doc:"disable bounded variable elimination within --preprocess \
               (elimination is proof-complete: it emits its resolvent \
               additions and clause deletions into --proof streams)")

let inprocess =
  Arg.(value & flag
       & info [ "inprocess" ]
         ~doc:"simplify the learnt-clause database during search \
               (subsumption + vivification at restart boundaries)")
let equiv = Arg.(value & flag & info [ "equiv" ] ~doc:"equivalency reasoning")
let rl = Arg.(value & opt int 0 & info [ "rl" ] ~doc:"recursive learning depth")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"random seed")
let stats = Arg.(value & flag & info [ "stats" ] ~doc:"print statistics")

let certify =
  Arg.(value & flag & info [ "certify" ] ~doc:"check the learned-clause proof")

let jobs =
  Arg.(value & opt int 1
       & info [ "jobs" ]
         ~doc:"solve with N diversified parallel workers (cdcl engine); \
               1 is the plain sequential solver")

let timeout =
  Arg.(value & opt (some float) None
       & info [ "timeout" ]
         ~doc:"wall-clock limit in seconds (cdcl and dpll engines); \
               reports UNKNOWN (timeout)")

let no_share =
  Arg.(value & flag
       & info [ "no-share" ] ~doc:"disable learned-clause sharing between workers")

let share_lbd =
  Arg.(value & opt int Sat.Portfolio.default_sharing.Sat.Portfolio.max_lbd
       & info [ "share-lbd" ]
         ~doc:"share learned clauses with LBD at most N between workers \
               (portfolio and cube-conquer)")

let cube_conquer =
  Arg.(value & flag
       & info [ "cube-conquer" ]
         ~doc:"cube-and-conquer: split the formula into cubes by lookahead, \
               then solve them on --jobs work-stealing workers (cdcl engine)")

let cube_depth =
  Arg.(value & opt int Sat.Cube.default_options.Sat.Cube.depth
       & info [ "cube-depth" ]
         ~doc:"emit cubes after N lookahead decisions (--cube-conquer)")

let cube_cutoff =
  Arg.(value & opt int 10_000
       & info [ "cube-cutoff" ]
         ~doc:"conflict budget per cube before it is split dynamically \
               (--cube-conquer)")

let auto =
  Arg.(value & flag
       & info [ "auto" ]
         ~doc:"per-instance auto-tuning: measure the formula (clause shape \
               + probe-measured propagation density) and pick the engine, \
               preprocessing, restart schedule, inprocessing and guidance \
               from the published decision table (docs/TUNING.md).  \
               Answers are unchanged; incompatible with --proof/--check/\
               --core/--certify/--cube-conquer/--timeout and non-cdcl \
               engines.  --jobs bounds the parallelism the table may use")

let explain_tuning =
  Arg.(value & flag
       & info [ "explain-tuning" ]
         ~doc:"imply --auto and print the measured features, the chosen \
               policy and the decision-table rules that fired as \
               $(i,c autotune) comment lines (checkable by hand against \
               docs/TUNING.md)")

let guide =
  Arg.(value & flag
       & info [ "guide" ]
         ~doc:"seed VSIDS activities and saved phases from the formula's \
               literal-weight profile (Jeroslow-Wang, docs/TUNING.md) \
               before search; purely heuristic, works with any cdcl path")

let proof_path =
  Arg.(value & opt (some string) None
       & info [ "proof" ] ~docv:"FILE"
         ~doc:"write the DRAT proof (additions and deletions) to FILE; \
               needs the sequential cdcl engine")

let check_flag =
  Arg.(value & flag
       & info [ "check" ]
         ~doc:"on UNSAT, trim and verify the proof in-memory with the \
               built-in backward checker; exit 20 only when the \
               refutation verifies (2 otherwise)")

let core_path =
  Arg.(value & opt (some string) None
       & info [ "core" ] ~docv:"FILE"
         ~doc:"on UNSAT, write the unsat core (original clauses the \
               trimmed proof depends on) to FILE in DIMACS; implies the \
               verification of --check")

let cmd =
  Cmd.v
    (Cmd.info "satsolve" ~doc:"SAT solver for DIMACS CNF")
    Term.(const solve_file $ file $ engine $ preprocess $ no_elim $ inprocess
          $ equiv $ rl $ seed $ stats $ certify $ jobs $ timeout $ no_share
          $ share_lbd $ cube_conquer $ cube_depth $ cube_cutoff
          $ auto $ explain_tuning $ guide
          $ proof_path $ check_flag $ core_path
          $ Obs.metrics_term $ Obs.trace_term)

let () = exit (Cmd.eval cmd)
