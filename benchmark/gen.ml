(* Input generation.  Every input derives from the workload seed through
   stdlib [Random] states, so the inputs do not move when the library's
   own random generator changes. *)

module N = Circuit.Netlist

let state seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let word st =
  let lo = Random.State.bits st in
  let mid = Random.State.bits st in
  let hi = Random.State.bits st in
  (lo lor (mid lsl 30) lor (hi lsl 60)) land ((1 lsl Circuit.Simulate.word_width) - 1)

(* Uniform random 3-SAT: [ratio * nvars] clauses over distinct variables. *)
let random_3sat st ~nvars ~ratio =
  let f = Cnf.Formula.create ~nvars () in
  for _ = 1 to int_of_float (Float.round (float nvars *. ratio)) do
    let rec pick acc =
      if List.length acc = 3 then acc
      else
        let v = Random.State.int st nvars in
        pick (if List.mem v acc then acc else v :: acc)
    in
    Cnf.Formula.add_clause_l f
      (List.map (fun v -> Cnf.Lit.of_var v (Random.State.bool st)) (pick []))
  done;
  f

(* An implementation of [c] that is equivalent by construction: seeded
   De Morgan rewrites plus inverter pairs. *)
let restyle st c =
  let c = Circuit.Transform.demorgan ~seed:(Random.State.bits st) c in
  Circuit.Transform.double_invert ~seed:(Random.State.bits st) c

(* A mutant of [c] with one flipped gate, together with an input vector on
   which the two differ, found by bit-parallel simulation.  Mutants whose
   difference simulation cannot observe are skipped, so the witness is
   what makes the expected answer (inequivalent) independent of any
   solver. *)
let buggy st c =
  let n = List.length (N.inputs c) in
  let rec attempt k =
    if k = 0 then failwith "Gen.buggy: no observable mutant";
    let m, _ = Circuit.Transform.inject_bug ~seed:(Random.State.bits st) c in
    let rec sim r =
      if r = 0 then attempt (k - 1)
      else
        let words = Array.init n (fun _ -> word st) in
        let oc = Circuit.Simulate.parallel_outputs c words in
        let om = Circuit.Simulate.parallel_outputs m words in
        let diff = Array.fold_left ( lor ) 0 (Array.map2 ( lxor ) oc om) in
        if diff = 0 then sim (r - 1)
        else
          let rec lane i = if (diff lsr i) land 1 = 1 then i else lane (i + 1) in
          let l = lane 0 in
          (m, Array.map (fun w -> (w lsr l) land 1 = 1) words)
    in
    sim 8
  in
  attempt 200

(* Miter CNF of two circuits: satisfiable iff they differ. *)
let miter a b = fst (Circuit.Miter.to_cnf a b)

(* The same formula with its variables renamed by a seeded permutation. *)
let permute st f =
  let n = Cnf.Formula.nvars f in
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  let g = Cnf.Formula.create ~nvars:n () in
  Cnf.Formula.iter_clauses f (fun c ->
      Cnf.Formula.add_clause g
        (Cnf.Clause.map_vars (fun v -> Cnf.Lit.pos p.(v)) c));
  g

let dimacs_clauses f =
  Array.to_list
    (Array.map
       (fun c -> List.map Cnf.Lit.to_dimacs (Cnf.Clause.to_list c))
       (Cnf.Formula.clauses f))
