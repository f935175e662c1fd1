(* The probe API of the watched-literal engine, as failed-literal
   probing, recursive learning and Stålmarck saturation drive it. *)

module C = Sat.Cdcl

let chain_formula () = Th.formula_of [ [ -1; 2 ]; [ -2; 3 ]; [ -3; 4 ] ]

let create f =
  let s = C.create f in
  ignore (C.propagate_root s);
  s

let propagation_chain () =
  let s = create (chain_formula ()) in
  Alcotest.(check bool) "consistent" true (C.consistent s);
  match C.probe_push s (Th.lit 1) with
  | C.Probe_ok (i, j) ->
    Alcotest.(check int) "chain length" 4 (j - i);
    Alcotest.(check int) "x4 true" 1 (C.value s (Th.lit 4))
  | C.Probe_conflict -> Alcotest.fail "no conflict expected"

let conflict_detection () =
  let s = create (Th.formula_of [ [ -1; 2 ]; [ -1; -2 ] ]) in
  (match C.probe_push s (Th.lit 1) with
   | C.Probe_conflict -> ()
   | C.Probe_ok _ -> Alcotest.fail "conflict expected");
  (* the probe level must have been rolled back *)
  Alcotest.(check int) "rolled back" (-1) (C.value s (Th.lit 1));
  Alcotest.(check int) "level popped" 0 (C.decision_level s);
  Alcotest.(check bool) "still consistent" true (C.consistent s)

let reprobe_after_pop () =
  let s = create (chain_formula ()) in
  (match C.probe_push s (Th.lit 1) with
   | C.Probe_ok _ -> ()
   | C.Probe_conflict -> Alcotest.fail "sat");
  C.probe_pop s;
  Alcotest.(check int) "x2 cleared" (-1) (C.value s (Th.lit 2));
  (* probing again works identically *)
  match C.probe_push s (Th.lit 1) with
  | C.Probe_ok (i, j) -> Alcotest.(check int) "again 4" 4 (j - i)
  | C.Probe_conflict -> Alcotest.fail "sat 2"

let root_units () =
  let s = create (Th.formula_of [ [ 1 ]; [ -1; 2 ] ]) in
  Alcotest.(check int) "unit propagated" 1 (C.value s (Th.lit 2));
  Alcotest.(check int) "trail" 2 (C.trail_size s)

let root_conflict () =
  let s = C.create (Th.formula_of [ [ 1 ]; [ -1 ] ]) in
  Alcotest.(check bool) "inconsistent" false (C.propagate_root s);
  Alcotest.(check bool) "stays inconsistent" false (C.consistent s)

let probe_assert_behaviour () =
  let s = create (chain_formula ()) in
  Alcotest.(check bool) "ok" true (C.probe_assert s (Th.lit 1));
  Alcotest.(check int) "propagated" 1 (C.value s (Th.lit 4));
  Alcotest.(check bool) "conflicting unit" false
    (C.probe_assert s (Th.lit (-4)));
  Alcotest.(check bool) "root refuted" false (C.consistent s)

let reason_and_support () =
  (* z=1, u=0 imply x=1 through (u + x + ~w) after w forced by (w + ~z) *)
  let f = Th.formula_of [ [ 1; 2; -3 ]; [ 3; -4 ] ] in
  (* vars: 1=u 2=x 3=w 4=z *)
  let s = create f in
  ignore (C.probe_assert s (Th.lit 4));
  ignore (C.probe_push s (Th.lit (-1)));
  (* w forced by z through (3 -4) *)
  Alcotest.(check int) "w forced" 1 (C.value s (Th.lit 3));
  Alcotest.(check bool) "x reason clause" true
    (Cnf.Clause.equal
       (Cnf.Clause.of_list (C.reason s (Cnf.Lit.var (Th.lit 2))))
       (Cnf.Clause.of_dimacs_list [ 1; 2; -3 ]));
  Alcotest.(check (list int)) "probed literal has no reason" []
    (C.reason s (Cnf.Lit.var (Th.lit 1)));
  (* x's implication (at the probe's level) rests on w, which predates
     it; the probed literal ~u is excluded by design *)
  let sup = Sat.Recursive_learning.support s ~level:1 (Th.lit 2) in
  Alcotest.(check (list int)) "support is w" [ Th.lit 3 ] sup

let levels () =
  let s = create (chain_formula ()) in
  Alcotest.(check int) "unassigned" (-1) (C.level s 0);
  ignore (C.probe_assert s (Th.lit 3));
  Alcotest.(check int) "root unit" 0 (C.level s 2);
  Alcotest.(check int) "root implication" 0 (C.level s 3);
  ignore (C.probe_push s (Th.lit 1));
  Alcotest.(check int) "probed" 1 (C.level s 0);
  Alcotest.(check int) "implied in probe" 1 (C.level s 1);
  C.probe_pop s;
  Alcotest.(check int) "popped" (-1) (C.level s 1)

let suite =
  [
    Th.case "propagation chain" propagation_chain;
    Th.case "conflict detection" conflict_detection;
    Th.case "re-probe after pop" reprobe_after_pop;
    Th.case "root units" root_units;
    Th.case "root conflict" root_conflict;
    Th.case "probe_assert" probe_assert_behaviour;
    Th.case "reason and support" reason_and_support;
    Th.case "levels" levels;
  ]
