module P = Sat.Proof

let certified_unsat () =
  let f =
    Th.formula_of [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ] ]
  in
  match P.solve_certified f with
  | Sat.Types.Unsat, P.Valid_refutation -> ()
  | Sat.Types.Unsat, _ -> Alcotest.fail "UNSAT but proof did not certify"
  | _ -> Alcotest.fail "expected UNSAT"

let certified_pigeonhole () =
  let v i j = (i * 4) + j + 1 in
  let cls = ref [] in
  for i = 0 to 4 do
    cls := List.init 4 (fun j -> v i j) :: !cls
  done;
  for j = 0 to 3 do
    for i1 = 0 to 4 do
      for i2 = i1 + 1 to 4 do
        cls := [ -(v i1 j); -(v i2 j) ] :: !cls
      done
    done
  done;
  match P.solve_certified (Th.formula_of !cls) with
  | Sat.Types.Unsat, P.Valid_refutation -> ()
  | _ -> Alcotest.fail "php(5,4) must certify"

let sat_runs_give_valid_derivations () =
  let f = Th.formula_of [ [ 1; 2 ]; [ -1; 2 ]; [ 3; -2 ] ] in
  match P.solve_certified f with
  | Sat.Types.Sat _, (P.Valid_derivation | P.Valid_refutation) -> ()
  | Sat.Types.Sat _, P.Invalid_step i -> Alcotest.failf "invalid step %d" i
  | _ -> Alcotest.fail "expected SAT"

let corrupted_proof_rejected () =
  (* a clause that is not an implicate cannot be RUP *)
  let f = Th.formula_of [ [ 1; 2 ]; [ -1; 2 ] ] in
  let bogus = [ P.Add (Cnf.Clause.of_dimacs_list [ 1 ]) ] in
  (match P.check f bogus with
   | P.Invalid_step 0 -> ()
   | _ -> Alcotest.fail "bogus step accepted");
  (* a valid step followed by a bogus one *)
  let mixed =
    [
      P.Add (Cnf.Clause.of_dimacs_list [ 2 ]);
      P.Add (Cnf.Clause.of_dimacs_list [ -1 ]);
    ]
  in
  match P.check f mixed with
  | P.Invalid_step 1 -> ()
  | _ -> Alcotest.fail "second step should fail"

let empty_proof_of_sat () =
  let f = Th.formula_of [ [ 1 ] ] in
  match P.check f [] with
  | P.Valid_derivation -> ()
  | _ -> Alcotest.fail "empty proof is a valid derivation"

let inconsistent_formula_trivially_refuted () =
  let f = Th.formula_of [ [ 1 ]; [ -1 ] ] in
  match P.check f [] with
  | P.Valid_refutation -> ()
  | _ -> Alcotest.fail "root conflict is already a refutation"

let prop_unsat_always_certifiable =
  QCheck.Test.make ~name:"every UNSAT run certifies" ~count:120
    QCheck.(int_bound 100_000)
    (fun seed ->
       let rng = Sat.Rng.create (seed + 51) in
       let f =
         Th.random_cnf rng (4 + Sat.Rng.int rng 8) (10 + Sat.Rng.int rng 40) 3
       in
       match P.solve_certified f with
       | Sat.Types.Unsat, v -> v = P.Valid_refutation
       | Sat.Types.Sat m, v ->
         Cnf.Formula.eval (fun x -> m.(x)) f
         && (match v with
             | P.Valid_derivation | P.Valid_refutation -> true
             | P.Invalid_step _ -> false)
       | (Sat.Types.Unsat_assuming _ | Sat.Types.Unknown _), _ -> false)

let prop_deletion_policies_still_certify =
  QCheck.Test.make ~name:"proofs survive clause deletion" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
       let rng = Sat.Rng.create (seed + 61) in
       let f = Th.random_cnf rng 9 45 3 in
       let config =
         { Sat.Types.default with Sat.Types.deletion = Sat.Types.Size_bounded 3 }
       in
       match P.solve_certified ~config f with
       | Sat.Types.Unsat, v -> v = P.Valid_refutation
       | Sat.Types.Sat _, P.Invalid_step _ -> false
       | _ -> true)

(* --- DRAT with deletions, trimming, cores ------------------------------- *)

let proof_config =
  { Sat.Types.default with
    Sat.Types.proof_logging = true;
    inprocessing = true;
    deletion = Sat.Types.Size_bounded 3 }

let unsat_proof f =
  let s = Sat.Cdcl.create ~config:proof_config f in
  match Sat.Cdcl.solve s with
  | Sat.Types.Unsat -> Sat.Cdcl.proof s
  | _ -> Alcotest.fail "expected UNSAT"

let php n =
  (* php(n, n-1): minimally unsatisfiable *)
  let holes = n - 1 in
  let v i j = (i * holes) + j + 1 in
  let cls = ref [] in
  for i = 0 to n - 1 do
    cls := List.init holes (fun j -> v i j) :: !cls
  done;
  for j = 0 to holes - 1 do
    for i1 = 0 to n - 1 do
      for i2 = i1 + 1 to n - 1 do
        cls := [ -(v i1 j); -(v i2 j) ] :: !cls
      done
    done
  done;
  Th.formula_of !cls

let trim_emits_checkable_lrat () =
  let f = php 4 in
  let steps = unsat_proof f in
  match P.trim f steps with
  | P.Trimmed { lines; kept_adds; total_adds; _ } ->
    Alcotest.(check bool) "trim keeps at most everything" true
      (kept_adds <= total_adds);
    (match P.check_lrat f lines with
     | Ok () -> ()
     | Error e -> Alcotest.failf "trimmed LRAT rejected: %s" e);
    (* the trimmed additions alone are still a valid DRAT refutation *)
    let trimmed = List.map (fun (ln : P.lrat_line) -> P.Add ln.lits) lines in
    (match P.check f trimmed with
     | P.Valid_refutation -> ()
     | _ -> Alcotest.fail "trimmed proof no longer checks")
  | P.Not_refutation -> Alcotest.fail "trim: not a refutation"
  | P.Trim_invalid i -> Alcotest.failf "trim: invalid step %d" i

let unsat_core_smoke () =
  let f = Th.formula_of [ [ 1 ]; [ -1 ]; [ 2; 3 ] ] in
  let steps = unsat_proof f in
  match P.trim f steps with
  | P.Trimmed { core; _ } ->
    Alcotest.(check (list int)) "core is the contradictory pair" [ 1; 2 ] core;
    (* the core refutes on its own, and is minimal: dropping either
       clause loses unsatisfiability *)
    (match Th.solve_cdcl (P.core_formula f core) with
     | Sat.Types.Unsat -> ()
     | _ -> Alcotest.fail "core should be UNSAT");
    List.iter
      (fun drop ->
        let rest = List.filter (fun id -> id <> drop) core in
        match Th.solve_cdcl (P.core_formula f rest) with
        | Sat.Types.Sat _ -> ()
        | _ -> Alcotest.fail "core minus one clause should be SAT")
      core
  | _ -> Alcotest.fail "trim failed"

let pigeonhole_core_is_everything () =
  (* minimally unsatisfiable: a valid refutation must use every clause *)
  let f = php 4 in
  let steps = unsat_proof f in
  match P.trim f steps with
  | P.Trimmed { core; _ } ->
    Alcotest.(check int) "core covers every clause"
      (Cnf.Formula.nclauses f) (List.length core)
  | _ -> Alcotest.fail "trim failed"

let deletions_parse_and_print () =
  let c l = Cnf.Clause.of_dimacs_list l in
  let steps =
    [ P.Add (c [ 1; -2 ]); P.Delete (c [ 3; 2; -1 ]); P.Add (c []) ]
  in
  Alcotest.(check bool) "drat text roundtrip" true
    (P.parse_drat (P.drat_to_string steps) = steps);
  let lines =
    [
      { P.id = 4; lits = c [ 1 ]; hints = [ 1; 3 ] };
      { P.id = 5; lits = c []; hints = [ 4; 2 ] };
    ]
  in
  Alcotest.(check bool) "lrat text roundtrip" true
    (P.parse_lrat (P.lrat_to_string lines) = lines)

let pures_incompatible_with_proof () =
  let f = Th.formula_of [ [ 1; 2 ] ] in
  match Sat.Preprocess.run ~pures:true ~proof:(fun _ -> ()) f with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let preprocess_refutation_is_self_contained () =
  let f =
    Th.formula_of [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ]; [ -3 ]; [ 4; 5 ] ]
  in
  let steps = ref [] in
  (match Sat.Preprocess.run ~proof:(fun s -> steps := s :: !steps) f with
   | Sat.Preprocess.Unsat -> ()
   | Sat.Preprocess.Simplified _ -> Alcotest.fail "expected UNSAT");
  match P.check f (List.rev !steps) with
  | P.Valid_refutation -> ()
  | _ -> Alcotest.fail "preprocessor refutation should check"

(* --- the checker database under deletions ------------------------------ *)

let cl l = Cnf.Clause.of_dimacs_list l

let trim_reports_needed_corrupt_step () =
  (* (1) is not RUP, but the terminal conflict runs through it; two
     unrelated steps come first, so it is step 2 *)
  let f = Th.formula_of [ [ -1; 2 ]; [ -1; -2 ]; [ 3; 4 ] ] in
  let steps = [ P.Add (cl [ 3; 4 ]); P.Delete (cl [ 3; 4 ]); P.Add (cl [ 1 ]) ] in
  (match P.trim f steps with
   | P.Trim_invalid 2 -> ()
   | P.Trim_invalid i -> Alcotest.failf "trim blamed step %d, not 2" i
   | _ -> Alcotest.fail "a corrupt needed lemma was accepted");
  match P.check f steps with
  | P.Invalid_step 2 -> ()
  | _ -> Alcotest.fail "forward check must blame step 2"

let trim_reactivates_later_deletions () =
  (* (2) rests on (1 2) and (-1 2), both deleted after it: the backward
     pass must bring them back before it checks (2) *)
  let f = Th.formula_of [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ] ] in
  let steps = [ P.Add (cl [ 2 ]); P.Delete (cl [ -1; 2 ]); P.Delete (cl [ 1; 2 ]) ] in
  Alcotest.(check bool) "forward check refutes" true
    (P.check f steps = P.Valid_refutation);
  match P.trim f steps with
  | P.Trimmed { lines; core; kept_adds; total_adds } ->
    Alcotest.(check (pair int int)) "kept / total" (1, 1) (kept_adds, total_adds);
    (match lines with
     | [ lemma; empty ] ->
       Alcotest.(check int) "lemma id" 5 lemma.P.id;
       Alcotest.(check (list int)) "lemma cites the deleted clauses"
         [ 1; 2 ] (List.sort compare lemma.P.hints);
       Alcotest.(check int) "empty clause id" 6 empty.P.id
     | _ -> Alcotest.fail "expected the lemma and the empty clause");
    Alcotest.(check (list int)) "core" [ 1; 2; 3; 4 ] core;
    (match P.check_lrat f lines with
     | Ok () -> ()
     | Error e -> Alcotest.failf "LRAT rejected: %s" e)
  | _ -> Alcotest.fail "trim failed"

let deleting_one_copy_keeps_the_other () =
  (* originals 2 and 3 are the same clause: one deletion leaves a copy
     active, the second removes the last one *)
  let f = Th.formula_of [ [ 1 ]; [ -1; 2 ]; [ -1; 2 ]; [ -2 ] ] in
  let once = [ P.Delete (cl [ 2; -1 ]) ] in
  let twice = once @ once in
  Alcotest.(check bool) "check: one copy left" true
    (P.check f once = P.Valid_refutation);
  Alcotest.(check bool) "check: no copy left" true
    (P.check f twice = P.Valid_derivation);
  (match P.trim f once with
   | P.Trimmed { core; lines; _ } ->
     (* the most recent copy (id 3) is the one deleted *)
     Alcotest.(check (list int)) "core keeps the older copy" [ 1; 2; 4 ] core;
     Alcotest.(check bool) "LRAT replays" true (P.check_lrat f lines = Ok ())
   | _ -> Alcotest.fail "trim: one copy should still refute");
  Alcotest.(check bool) "trim: no copy left" true
    (P.trim f twice = P.Not_refutation);
  (* the same for lemma copies *)
  let g = Th.formula_of [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ] ] in
  let lemmas = [ P.Add (cl [ 2 ]); P.Add (cl [ 2 ]); P.Delete (cl [ 2 ]) ] in
  Alcotest.(check bool) "check: lemma copy left" true
    (P.check g lemmas = P.Valid_refutation);
  match P.trim g lemmas with
  | P.Trimmed { lines; kept_adds; total_adds; _ } ->
    Alcotest.(check (pair int int)) "kept / total" (1, 2) (kept_adds, total_adds);
    Alcotest.(check (list int)) "the surviving copy is the first"
      [ 5; 7 ] (List.map (fun (ln : P.lrat_line) -> ln.P.id) lines);
    Alcotest.(check bool) "LRAT replays" true (P.check_lrat g lines = Ok ())
  | _ -> Alcotest.fail "trim: lemma copy should refute"

(* a 300-instance corpus: the full Solver pipeline (BVE +
   probing off, inprocessing + aggressive deletion on) must emit a DRAT
   stream that both forward-checks and backward-trims into a valid LRAT
   certificate on every UNSAT verdict *)
let prop_full_pipeline_drat =
  QCheck.Test.make
    ~name:"full-pipeline DRAT with deletions trims and checks" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sat.Rng.create (seed + 71) in
      let f =
        Th.random_cnf rng (5 + Sat.Rng.int rng 9) (15 + Sat.Rng.int rng 45) 3
      in
      let report =
        Sat.Solver.solve
          ~engine:(Sat.Solver.Cdcl proof_config)
          ~pipeline:Sat.Solver.full_pipeline f
      in
      let steps = Option.value report.Sat.Solver.proof ~default:[] in
      match report.Sat.Solver.outcome with
      | Sat.Types.Unsat ->
        P.check f steps = P.Valid_refutation
        && (match P.trim f steps with
           | P.Trimmed { lines; kept_adds; total_adds; _ } ->
             kept_adds <= total_adds
             && P.check_lrat f lines = Ok ()
             && P.check f
                  (List.map (fun (ln : P.lrat_line) -> P.Add ln.lits) lines)
                = P.Valid_refutation
           | P.Not_refutation | P.Trim_invalid _ -> false)
      | Sat.Types.Sat m -> Cnf.Formula.eval (fun x -> m.(x)) f
      | Sat.Types.Unsat_assuming _ | Sat.Types.Unknown _ -> false)

let suite =
  [
    Th.case "certified unsat" certified_unsat;
    Th.case "certified pigeonhole" certified_pigeonhole;
    Th.case "sat derivations" sat_runs_give_valid_derivations;
    Th.case "corrupted proofs rejected" corrupted_proof_rejected;
    Th.case "empty proof" empty_proof_of_sat;
    Th.case "trivial refutation" inconsistent_formula_trivially_refuted;
    Th.case "trim emits checkable LRAT" trim_emits_checkable_lrat;
    Th.case "unsat core smoke" unsat_core_smoke;
    Th.case "pigeonhole core is everything" pigeonhole_core_is_everything;
    Th.case "DRAT/LRAT text roundtrip" deletions_parse_and_print;
    Th.case "pures rejected with proof" pures_incompatible_with_proof;
    Th.case "preprocess refutation checks" preprocess_refutation_is_self_contained;
    Th.case "trim blames the needed corrupt step" trim_reports_needed_corrupt_step;
    Th.case "trim reactivates later deletions" trim_reactivates_later_deletions;
    Th.case "deleting one copy keeps the other" deleting_one_copy_keeps_the_other;
    Th.qcheck prop_unsat_always_certifiable;
    Th.qcheck prop_deletion_policies_still_certify;
    Th.qcheck prop_full_pipeline_drat;
  ]
