module Lit = Cnf.Lit
module Clause = Cnf.Clause

type result = {
  necessary : Lit.t list;
  implicates : Clause.t list;
  unsat : bool;
  splits : int;
}

module LitSet = Set.Make (Int)

type env = {
  solver : Cdcl.t;
  root : bool array;
      (* variables fixed by propagating the formula alone, before the
         assumptions and the derived units (both also land at level 0) *)
  assumptions : Lit.t list;
  (* support atoms for units we derived and asserted: citing a derived
     literal in a later explanation expands into what it rests on, so
     every recorded clause is an implicate of the original formula *)
  derived_support : (int, LitSet.t) Hashtbl.t;
  mutable splits : int;
}

let support s ~level l =
  let out = ref [] in
  let seen = Hashtbl.create 16 in
  let rec walk l =
    let v = Lit.var l in
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      if Cdcl.level s v < level then out := l :: !out
      else
        List.iter
          (fun m -> if Lit.var m <> v then walk (Lit.negate m))
          (Cdcl.reason s v)
    end
  in
  walk l;
  !out

(* Assumption-level atoms explaining why [l] (currently true) holds.
   Root facts are unconditional and dropped; derived units are expanded
   into their atoms; any other level-0 literal was propagated from
   those, so it is expanded through its reason down to root facts,
   derived units and assumptions. *)
let explain env ~level l =
  let s = env.solver in
  let seen = Hashtbl.create 16 in
  let rec atoms acc m =
    let v = Lit.var m in
    if env.root.(v) || Hashtbl.mem seen v then acc
    else begin
      Hashtbl.add seen v ();
      match Hashtbl.find_opt env.derived_support v with
      | Some a -> LitSet.union a acc
      | None -> (
        match if Cdcl.level s v = 0 then Cdcl.reason s v else [] with
        | [] -> LitSet.add m acc
        | reason ->
          List.fold_left
            (fun acc x -> if Lit.var x = v then acc else atoms acc (Lit.negate x))
            acc reason)
    end
  in
  List.fold_left atoms LitSet.empty (support s ~level l)

let free_lits env c =
  List.filter (fun l -> Cdcl.value env.solver l < 0) (Clause.to_list c)

let clause_unresolved env c ~max_clause_size =
  Clause.size c <= max_clause_size
  && (not
        (List.exists (fun l -> Cdcl.value env.solver l = 1) (Clause.to_list c)))
  && List.length (free_lits env c) >= 2

(* Case split on clause [c] at the given recursion depth.

   Each free literal is assumed and propagated; at depth > 1, unresolved
   clauses inside the branch are split recursively and their common
   implications are asserted within the branch before collecting its
   implied set.  Depth-1 explanations are precise; recursion depth > 1
   marks its derivations with the coarse support (all assumptions), which
   keeps recorded clauses sound.

   Returns [None] when every branch conflicts, otherwise the literals
   implied in all surviving branches, each with its support atoms, and a
   flag telling whether some branch was pruned by a conflict.  A pruned
   branch is impossible only {e given the assumption context}, so any
   derivation that relied on the pruning must cite every assumption —
   the caller widens those supports to the coarse set. *)
let rec split env c ~depth ~max_clause_size ~inner_limit all_clauses =
  env.splits <- env.splits + 1;
  let coarse =
    lazy (LitSet.of_list env.assumptions)
  in
  let pruned = ref false in
  let branch l =
    match Cdcl.probe_push env.solver l with
    | Cdcl.Probe_conflict ->
      pruned := true;
      None
    | Cdcl.Probe_ok (i, j) ->
      let level = Cdcl.decision_level env.solver in
      let implied =
        List.init (j - i) (fun k -> Cdcl.trail_get env.solver (i + k))
      in
      let conflict_inside = ref false in
      let extra = ref [] in
      if depth > 1 then begin
        let examined = ref 0 in
        Array.iter
          (fun c' ->
             if (not !conflict_inside) && !examined < inner_limit
                && clause_unresolved env c' ~max_clause_size
             then begin
               incr examined;
               match
                 split env c' ~depth:(depth - 1) ~max_clause_size
                   ~inner_limit all_clauses
               with
               | None -> conflict_inside := true
               | Some commons ->
                 List.iter
                   (fun (x, _) ->
                      if (not !conflict_inside) && Cdcl.value env.solver x < 0
                      then
                        if Cdcl.probe_assert env.solver x then
                          extra := x :: !extra
                        else conflict_inside := true)
                   commons
             end)
          all_clauses
      end;
      if !conflict_inside then begin
        Cdcl.probe_pop env.solver;
        pruned := true;
        None
      end
      else begin
        let precise x = (x, explain env ~level x) in
        let with_support =
          List.map precise implied
          @ List.map (fun x -> (x, Lazy.force coarse)) !extra
        in
        Cdcl.probe_pop env.solver;
        Some with_support
      end
  in
  let branch_results = List.filter_map branch (free_lits env c) in
  match branch_results with
  | [] -> None
  | first :: rest ->
    let common =
      List.fold_left
        (fun acc br ->
           List.filter_map
             (fun (x, sup) ->
                match List.assoc_opt x br with
                | Some sup' -> Some (x, LitSet.union sup sup')
                | None -> None)
             acc)
        first rest
    in
    let widen (x, sup) =
      if !pruned then (x, LitSet.union (Lazy.force coarse) sup) else (x, sup)
    in
    Some
      (List.map widen
         (List.filter (fun (x, _) -> Cdcl.value env.solver x < 0) common))

(* Assumption-level reasons why the already-falsified literals of [c]
   are false; they join every explanation derived from [c]. *)
let falsified_support env c =
  let level = Cdcl.decision_level env.solver + 1 in
  List.fold_left
    (fun acc m ->
       if Cdcl.value env.solver m = 0 then
         LitSet.union acc (explain env ~level (Lit.negate m))
       else acc)
    LitSet.empty (Clause.to_list c)

let learn ?(assumptions = []) ?(depth = 1) ?(max_clause_size = 8)
    ?(max_passes = 4) f =
  let solver = Cdcl.create f in
  let fail splits = { necessary = []; implicates = []; unsat = true; splits } in
  if not (Cdcl.propagate_root solver) then fail 0
  else begin
    let root = Array.make (max 1 (Cdcl.nvars solver)) false in
    for i = 0 to Cdcl.trail_size solver - 1 do
      root.(Lit.var (Cdcl.trail_get solver i)) <- true
    done;
    let env =
      { solver; root; assumptions; derived_support = Hashtbl.create 16;
        splits = 0 }
    in
    if not (List.for_all (Cdcl.probe_assert solver) assumptions) then fail 0
    else begin
      let necessary = ref [] and implicates = ref [] in
      let unsat = ref false in
      let clauses = Cnf.Formula.clauses f in
      let pass = ref 0 and progress = ref true in
      while (not !unsat) && !progress && !pass < max_passes do
        incr pass;
        progress := false;
        Array.iter
          (fun c ->
             if (not !unsat) && clause_unresolved env c ~max_clause_size
             then begin
               let fsup = falsified_support env c in
               match
                 split env c ~depth ~max_clause_size ~inner_limit:16 clauses
               with
               | None -> unsat := true
               | Some commons ->
                 List.iter
                   (fun (x, sup) ->
                      if Cdcl.value solver x < 0 then begin
                        let atoms = LitSet.union sup fsup in
                        let clause =
                          Clause.of_list
                            (x :: List.map Lit.negate (LitSet.elements atoms))
                        in
                        necessary := x :: !necessary;
                        implicates := clause :: !implicates;
                        Hashtbl.replace env.derived_support (Lit.var x) atoms;
                        if Cdcl.probe_assert solver x then progress := true
                        else unsat := true
                      end)
                   commons
             end)
          clauses
      done;
      {
        necessary = List.rev !necessary;
        implicates = List.rev !implicates;
        unsat = !unsat;
        splits = env.splits;
      }
    end
  end

let strengthen ?(depth = 1) f =
  let r = learn ~depth f in
  let g = Cnf.Formula.copy f in
  if r.unsat then Cnf.Formula.add_clause_l g []
  else List.iter (fun c -> Cnf.Formula.add_clause g c) r.implicates;
  (g, r)
