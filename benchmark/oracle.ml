(* Expected answers that do not come from the engine being measured, and
   the checks every verdict goes through.

   - A miter of two circuits that are equivalent by construction is
     unsatisfiable.
   - A miter against a mutant is satisfiable: set-up found a distinguishing
     input by simulation ({!Gen.buggy}).
   - A random 3-SAT formula gets its answer once, at set-up, from a
     certified solve: a model that evaluates true, or a refutation that
     survives trimming and the LRAT replay. *)

type answer = Sat | Unsat

let flip = function Sat -> Unsat | Unsat -> Sat

let eval_model f m = Cnf.Formula.eval (fun v -> v < Array.length m && m.(v)) f

(* [Some answer] when the refutation trims and its LRAT replay passes;
   [trim] and [check] wrap the two calls (spans in a traced run). *)
let check_refutation ?(trim = fun g -> g ()) ?(check = fun g -> g ()) f steps =
  match trim (fun () -> Sat.Proof.trim f steps) with
  | Sat.Proof.Trimmed { lines; kept_adds; total_adds; _ } -> (
    match check (fun () -> Sat.Proof.check_lrat f lines) with
    | Ok () -> Some (kept_adds, total_adds)
    | Error _ -> None)
  | Sat.Proof.Not_refutation | Sat.Proof.Trim_invalid _ -> None

let certify f =
  let config = { Sat.Types.default with Sat.Types.proof_logging = true } in
  let r =
    Sat.Solver.solve ~engine:(Sat.Solver.Cdcl config)
      ~pipeline:Sat.Solver.no_pipeline f
  in
  match r.Sat.Solver.outcome, r.Sat.Solver.proof with
  | Sat.Types.Sat m, _ when eval_model f m -> Sat
  | Sat.Types.Unsat, Some steps when check_refutation f steps <> None -> Unsat
  | _ -> failwith "Oracle.certify: no certified answer"

(* Candidate pools of uniform random 3-SAT with a fixed mix of answers.
   Set-up draws [3 * (sat + unsat) / 2] candidates; {!select} certifies
   them in order and keeps the first [sat] satisfiable and [unsat]
   unsatisfiable ones, drawing more from the same stream in the rare case
   the pool runs short.  A fixed mix keeps a lucky or unlucky draw from
   swinging the pass time; certifying outside set-up keeps set-up time
   independent of how hard the draws are. *)
type pool = {
  st : Random.State.t;
  nvars : int;
  ratio : float;
  sat : int;
  unsat : int;
  candidates : Cnf.Formula.t list;
}

let pool st ~nvars ~ratio ~sat ~unsat =
  { st; nvars; ratio; sat; unsat;
    candidates =
      List.init (3 * (sat + unsat) / 2) (fun _ -> Gen.random_3sat st ~nvars ~ratio) }

(* The kept formulas, interleaved SAT first, with their answers. *)
let select p =
  let rec draw s u = function
    | _ when List.length s >= p.sat && List.length u >= p.unsat ->
      (List.rev s, List.rev u)
    | [] -> draw s u [ Gen.random_3sat p.st ~nvars:p.nvars ~ratio:p.ratio ]
    | f :: rest -> (
      match certify f with
      | Sat when List.length s < p.sat -> draw (f :: s) u rest
      | Unsat when List.length u < p.unsat -> draw s (f :: u) rest
      | Sat | Unsat -> draw s u rest)
  in
  let s, u = draw [] [] p.candidates in
  let rec mix = function
    | x :: xs, y :: ys -> (x, Sat) :: (y, Unsat) :: mix (xs, ys)
    | xs, [] -> List.map (fun x -> (x, Sat)) xs
    | [], ys -> List.map (fun y -> (y, Unsat)) ys
  in
  mix (s, u)
