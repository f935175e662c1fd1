module N = Circuit.Netlist
module Gate = Circuit.Gate
module Miter = Circuit.Miter

type verdict = Verdict.t =
  | Equivalent
  | Inequivalent of bool array
  | Inconclusive of string

type report = {
  verdict : verdict;
  time_seconds : float;
  sat_stats : Sat.Types.stats option;
  bdd_nodes : int;
}

let extract_vector c1 lit_of_node m =
  (* miter inputs come first and correspond to c1's inputs positionally *)
  Array.init (List.length (N.inputs c1)) (fun i ->
      let l = lit_of_node i in
      let v = m.(Cnf.Lit.var l) in
      if Cnf.Lit.is_pos l then v else not v)

let check_sat ?metrics ?trace ?(config = Sat.Types.default) ?engine
    ?(pipeline = Sat.Solver.no_pipeline) c1 c2 =
  let t0 = Sat.Monotime.now_s () in
  let f, lit_of_node = Miter.to_cnf c1 c2 in
  let engine =
    match engine with Some e -> e | None -> Sat.Solver.Cdcl config
  in
  let rep = Sat.Solver.solve ?metrics ?trace ~engine ~pipeline f in
  let verdict =
    match rep.Sat.Solver.outcome with
    | Sat.Types.Unsat -> Equivalent
    | Sat.Types.Sat m -> Inequivalent (extract_vector c1 lit_of_node m)
    | Sat.Types.Unsat_assuming _ -> Equivalent
    | Sat.Types.Unknown why -> Inconclusive why
  in
  {
    verdict;
    time_seconds = Sat.Monotime.now_s () -. t0;
    sat_stats = rep.Sat.Solver.solver_stats;
    bdd_nodes = 0;
  }

let check_rl ?metrics ?trace ?(config = Sat.Types.default) ~depth c1 c2 =
  check_sat ?metrics ?trace ~config
    ~pipeline:{ Sat.Solver.no_pipeline with recursive_learning = depth }
    c1 c2

let node_bdds man c ~var_of_input =
  let values = Array.make (max 1 (N.num_nodes c)) (Bdd.zero man) in
  List.iteri
    (fun i id -> values.(id) <- Bdd.var man (var_of_input i))
    (N.inputs c);
  for id = 0 to N.num_nodes c - 1 do
    match N.node c id with
    | N.Input -> ()
    | N.Const b -> values.(id) <- (if b then Bdd.one man else Bdd.zero man)
    | N.Gate (g, fs) ->
      let ins = List.map (fun f -> values.(f)) fs in
      let fold2 op = function
        | x :: rest -> List.fold_left (op man) x rest
        | [] -> invalid_arg "node_bdds"
      in
      values.(id) <-
        (match g with
         | Gate.And -> fold2 Bdd.and_ ins
         | Gate.Or -> fold2 Bdd.or_ ins
         | Gate.Nand -> Bdd.not_ man (fold2 Bdd.and_ ins)
         | Gate.Nor -> Bdd.not_ man (fold2 Bdd.or_ ins)
         | Gate.Xor -> fold2 Bdd.xor ins
         | Gate.Xnor -> Bdd.not_ man (fold2 Bdd.xor ins)
         | Gate.Not -> Bdd.not_ man (List.hd ins)
         | Gate.Buf -> List.hd ins)
  done;
  values

let check_bdd ?(node_limit = 500_000) c1 c2 =
  let t0 = Sat.Monotime.now_s () in
  let man = Bdd.manager ~node_limit () in
  let finish verdict =
    {
      verdict;
      time_seconds = Sat.Monotime.now_s () -. t0;
      sat_stats = None;
      bdd_nodes = Bdd.node_count man;
    }
  in
  if List.length (N.inputs c1) <> List.length (N.inputs c2)
     || List.length (N.outputs c1) <> List.length (N.outputs c2)
  then finish (Inequivalent [||])
  else
    try
      let v1 = node_bdds man c1 ~var_of_input:(fun i -> i) in
      let v2 = node_bdds man c2 ~var_of_input:(fun i -> i) in
      let pairs = List.combine (N.output_ids c1) (N.output_ids c2) in
      let rec compare = function
        | [] -> finish Equivalent
        | (o1, o2) :: rest ->
          if Bdd.equal v1.(o1) v2.(o2) then compare rest
          else begin
            let diff = Bdd.xor man v1.(o1) v2.(o2) in
            let n_inputs = List.length (N.inputs c1) in
            let vec = Array.make n_inputs false in
            (match Bdd.any_sat diff with
             | Some assignment ->
               List.iter
                 (fun (v, b) -> if v < n_inputs then vec.(v) <- b)
                 assignment
             | None -> ());
            finish (Inequivalent vec)
          end
      in
      compare pairs
    with Bdd.Node_limit -> finish (Inconclusive "BDD node limit")

let check_aig ?(config = Sat.Types.default) c1 c2 =
  let t0 = Sat.Monotime.now_s () in
  let finish ?stats verdict nodes =
    {
      verdict;
      time_seconds = Sat.Monotime.now_s () -. t0;
      sat_stats = stats;
      bdd_nodes = nodes;
    }
  in
  match Aig.merge_netlists c1 c2 with
  | exception Invalid_argument _ -> finish (Inequivalent [||]) 0
  | m, pairs ->
    let unresolved = List.filter (fun (a, b) -> a <> b) pairs in
    if unresolved = [] then finish Equivalent (Aig.node_count m)
    else begin
      let diff =
        List.fold_left
          (fun acc (a, b) -> Aig.or_ m acc (Aig.xor m a b))
          Aig.const_false unresolved
      in
      let f, lit_of = Aig.to_cnf m in
      Cnf.Formula.add_clause_l f [ lit_of diff ];
      let sess = Sat.Session.of_formula ~config f in
      let outcome = Sat.Session.solve sess in
      let stats = Sat.Session.cumulative_stats sess in
      match outcome with
      | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ ->
        finish ~stats Equivalent (Aig.node_count m)
      | Sat.Types.Sat model ->
        let n_inputs = List.length (N.inputs c1) in
        let vec =
          Array.init n_inputs (fun i ->
              let l = lit_of (Aig.input m i) in
              let v = model.(Cnf.Lit.var l) in
              if Cnf.Lit.is_pos l then v else not v)
        in
        finish ~stats (Inequivalent vec) (Aig.node_count m)
      | Sat.Types.Unknown why ->
        finish ~stats (Inconclusive why) (Aig.node_count m)
    end

let check_fraig ?metrics ?trace ?config ?words ?seed ?candidate_conflicts
    ?guide c1 c2 =
  let r =
    Sweep.check ?config ?words ?seed ?candidate_conflicts ?guide ?metrics
      ?trace c1 c2
  in
  {
    verdict = r.Sweep.verdict;
    time_seconds = r.Sweep.times.Sweep.total_s;
    sat_stats = r.Sweep.solver_stats;
    bdd_nodes = r.Sweep.stats.Sweep.fraig_nodes;
  }
