(* End-to-end CLI contract: SAT-competition exit codes and the
   --metrics JSON surface, exercised through the real satsolve binary.
   The binary and the example files are dune deps of the test runner. *)

let satsolve = Filename.concat (Filename.concat ".." "bin") "satsolve.exe"
let dratcheck = Filename.concat (Filename.concat ".." "bin") "dratcheck.exe"
let bench_gen = Filename.concat (Filename.concat ".." "bin") "bench_gen.exe"
let example f = Filename.concat (Filename.concat ".." "examples") f

let run_exe exe args =
  Sys.command (Filename.quote_command exe args ~stdout:Filename.null)

let run args = run_exe satsolve args

let exit_codes () =
  Alcotest.(check int) "UNSAT exits 20" 20 (run [ example "php43.cnf" ]);
  Alcotest.(check int) "SAT exits 10" 10 (run [ example "color5.cnf" ]);
  (* local search cannot refute: UNKNOWN exits 0 *)
  Alcotest.(check int) "UNKNOWN exits 0" 0
    (run [ example "php43.cnf"; "--engine"; "walksat" ]);
  Alcotest.(check int) "bad flag exits like cmdliner" 124
    (run [ example "php43.cnf"; "--no-such-flag" ])

let certify_exit_codes () =
  Alcotest.(check int) "certified UNSAT exits 20" 20
    (run [ example "php43.cnf"; "--certify" ]);
  Alcotest.(check int) "certified SAT exits 10" 10
    (run [ example "color5.cnf"; "--certify" ])

let metrics_schema () =
  let path = Filename.temp_file "satsolve_metrics" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Alcotest.(check int) "solve exits 20" 20
         (run [ example "php43.cnf"; "--metrics"; path ]);
       let ic = open_in_bin path in
       let text = really_input_string ic (in_channel_length ic) in
       close_in ic;
       let j =
         match Sat.Json.parse text with
         | Ok j -> j
         | Error e -> Alcotest.fail ("metrics file is not valid JSON: " ^ e)
       in
       let member k =
         match Sat.Json.member k j with
         | Some v -> v
         | None -> Alcotest.fail ("missing field " ^ k)
       in
       Alcotest.(check string) "schema" Sat.Metrics.schema_name
         (Option.get (Sat.Json.to_string_opt (member "schema")));
       Alcotest.(check int) "version" Sat.Metrics.schema_version
         (Option.get (Sat.Json.to_int (member "version")));
       Alcotest.(check string) "tool" "satsolve"
         (Option.get (Sat.Json.to_string_opt (member "tool")));
       (* restoring through of_json proves the snapshot is schema-complete *)
       (match Sat.Metrics.of_json j with
        | Ok m ->
          let d =
            Sat.Metrics.counter_value (Sat.Metrics.counter m "solver/decisions")
          in
          Alcotest.(check bool) "decisions recorded" true (d > 0)
        | Error e -> Alcotest.fail ("of_json refused the snapshot: " ^ e)))

let trace_schema () =
  let path = Filename.temp_file "satsolve_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Alcotest.(check int) "solve exits 20" 20
         (run [ example "php43.cnf"; "--trace"; path ]);
       let ic = open_in path in
       let lines = ref [] in
       (try
          while true do
            lines := input_line ic :: !lines
          done
        with End_of_file -> close_in ic);
       let lines = List.rev !lines in
       Alcotest.(check bool) "has header + events" true (List.length lines > 1);
       List.iteri
         (fun i line ->
            match Sat.Json.parse line with
            | Error e ->
              Alcotest.fail (Printf.sprintf "line %d invalid: %s" i e)
            | Ok j ->
              if i = 0 then
                Alcotest.(check string) "header schema" Sat.Trace.schema_name
                  (Option.get
                     (Sat.Json.to_string_opt
                        (Option.get (Sat.Json.member "schema" j))))
              else (
                ignore (Option.get (Sat.Json.member "t" j));
                ignore (Option.get (Sat.Json.member "ev" j))))
         lines)

let in_tmp name f =
  let path = Filename.temp_file "satreda_cli" name in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let proof_check_core_flow () =
  (* solve → DRAT → trim/check → LRAT + core, all through the binaries *)
  in_tmp ".drat" (fun proof ->
      in_tmp ".lrat" (fun lrat ->
          in_tmp ".core" (fun core ->
              Alcotest.(check int) "--proof --check certifies UNSAT" 20
                (run
                   [ example "php43.cnf"; "--preprocess"; "--inprocess";
                     "--proof"; proof; "--check" ]);
              Alcotest.(check int) "dratcheck verifies and exports" 0
                (run_exe dratcheck
                   [ example "php43.cnf"; proof; "--lrat"; lrat; "--core";
                     core; "--stats" ]);
              Alcotest.(check int) "forward mode agrees" 0
                (run_exe dratcheck [ example "php43.cnf"; proof; "--forward" ]);
              Alcotest.(check int) "exported LRAT re-validates" 0
                (run_exe dratcheck
                   [ example "php43.cnf"; "--check-lrat"; lrat ]);
              (* the exported core is a DIMACS formula and still UNSAT *)
              Alcotest.(check int) "core is UNSAT" 20 (run [ core ]))))

let proof_of_sat_is_derivation () =
  in_tmp ".drat" (fun proof ->
      Alcotest.(check int) "SAT still exits 10" 10
        (run [ example "color5.cnf"; "--preprocess"; "--proof"; proof ]);
      Alcotest.(check int) "no refutation to trim" 1
        (run_exe dratcheck [ example "color5.cnf"; proof ]))

let dratcheck_rejects_garbage () =
  in_tmp ".cnf" (fun cnf ->
      in_tmp ".drat" (fun proof ->
          let write path text =
            let oc = open_out path in
            output_string oc text;
            close_out oc
          in
          write cnf "p cnf 2 2\n1 2 0\n-1 2 0\n";
          (* [1] is not an implicate: forward checking must reject it *)
          write proof "1 0\n0\n";
          Alcotest.(check int) "bogus step rejected" 2
            (run_exe dratcheck [ cnf; proof; "--forward" ]);
          Alcotest.(check int) "missing file is an I/O error" 3
            (run_exe dratcheck [ cnf; proof ^ ".nope" ])))

let miter_corpus_flow () =
  (* the CI certification loop in miniature: generate an equivalence
     miter, solve with the full pipeline, proof-check the verdict *)
  in_tmp ".cnf" (fun cnf ->
      in_tmp ".drat" (fun proof ->
          Alcotest.(check int) "miter CNF generated" 0
            (run_exe bench_gen
               [ "ripple"; "--bits"; "3"; "--miter-with"; "kogge"; "--cnf";
                 "-o"; cnf ]);
          Alcotest.(check int) "equivalence certified" 20
            (run
               [ cnf; "--preprocess"; "--inprocess"; "--proof"; proof;
                 "--check" ]);
          Alcotest.(check int) "dratcheck agrees" 0
            (run_exe dratcheck [ cnf; proof ])))

let timeout_every_engine () =
  (* every engine that searches honours --timeout; one that cannot is
     refused instead of silently running unbounded *)
  in_tmp ".out" (fun out ->
      let run_timed args =
        let rc =
          Sys.command
            (Filename.quote_command satsolve
               (example "php1110.cnf" :: "--timeout" :: "0.2" :: args)
               ~stdout:out)
        in
        (rc, In_channel.with_open_text out In_channel.input_lines)
      in
      let timed_out args = run_timed args = (0, [ "s UNKNOWN (timeout)" ]) in
      Alcotest.(check bool) "cdcl --jobs 1 times out" true (timed_out []);
      Alcotest.(check bool) "dpll times out" true
        (timed_out [ "--engine"; "dpll" ]);
      Alcotest.(check bool) "--auto times out" true (timed_out [ "--auto" ]);
      in_tmp ".drat" (fun drat ->
          (match run_timed [ "--proof"; drat ] with
           | 0, [ "s UNKNOWN (timeout)"; written ] ->
             Alcotest.(check bool) "proof prefix written" true
               (String.starts_with ~prefix:"c proof: " written)
           | _ -> Alcotest.fail "--proof --timeout did not time out");
          (* the additions written before the deadline are still RUP *)
          Alcotest.(check bool) "proof prefix is a valid derivation" true
            (Sat.Proof.check
               (Cnf.Dimacs.parse_file (example "php1110.cnf"))
               (Sat.Proof.parse_drat_file drat)
             = Sat.Proof.Valid_derivation)));
  Alcotest.(check int) "walksat --timeout refused" 2
    (Sys.command
       (Filename.quote_command satsolve
          [ example "php43.cnf"; "--engine"; "walksat"; "--timeout"; "0.2" ]
          ~stdout:Filename.null ~stderr:Filename.null))

let certify_timeout () =
  (* --certify runs the search under the same deadline as every other
     path: UNKNOWN, exit 0, and the steps logged before the deadline
     check as a derivation, not as a certified refutation *)
  in_tmp ".out" (fun out ->
      let t0 = Sat.Monotime.now_s () in
      let rc =
        Sys.command
          (Filename.quote_command satsolve
             [ example "php1110.cnf"; "--certify"; "--timeout"; "0.2" ]
             ~stdout:out)
      in
      let elapsed = Sat.Monotime.now_s () -. t0 in
      let lines = In_channel.with_open_text out In_channel.input_lines in
      Alcotest.(check int) "exit 0" 0 rc;
      Alcotest.(check (list string)) "output"
        [ "s UNKNOWN (timeout)"; "c proof: all learned clauses verified" ]
        lines;
      Alcotest.(check bool)
        (Printf.sprintf "done within 2 s (took %.2f s)" elapsed)
        true (elapsed < 2.))

let suite =
  [
    Th.case "exit codes" exit_codes;
    Th.case "certify exit codes" certify_exit_codes;
    Th.case "proof/check/core flow" proof_check_core_flow;
    Th.case "SAT proofs are derivations" proof_of_sat_is_derivation;
    Th.case "dratcheck rejects garbage" dratcheck_rejects_garbage;
    Th.case "miter corpus flow" miter_corpus_flow;
    Th.case "--metrics schema" metrics_schema;
    Th.case "--trace schema" trace_schema;
    Th.case "--timeout on every engine" timeout_every_engine;
    Th.case "--certify --timeout" certify_timeout;
  ]
