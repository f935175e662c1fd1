module N = Circuit.Netlist
module Gate = Circuit.Gate
module Lit = Cnf.Lit

type path = N.node_id list

let enumerate_paths c ~limit =
  let acc = ref [] and count = ref 0 in
  (* DFS backward from each output, deepest fanin first *)
  let rec descend suffix x =
    if !count < limit then
      match N.node c x with
      | N.Input ->
        acc := (x :: suffix) :: !acc;
        incr count
      | N.Const _ -> ()
      | N.Gate (_, fs) ->
        let ordered =
          List.sort (fun a b -> Int.compare (N.level c b) (N.level c a)) fs
        in
        List.iter (fun w -> descend (x :: suffix) w) ordered
  in
  let outs =
    List.sort
      (fun a b -> Int.compare (N.level c b) (N.level c a))
      (N.output_ids c)
  in
  List.iter (fun o -> descend [] o) outs;
  List.rev !acc

let validate_path c = function
  | [] -> false
  | first :: rest ->
    (match N.node c first with
     | N.Input -> true
     | N.Gate _ | N.Const _ -> false)
    &&
    let rec ok prev = function
      | [] -> true
      | x :: rest -> List.mem prev (N.fanins c x) && ok x rest
    in
    ok first rest

type outcome =
  | Test of bool array * bool array
  | Untestable
  | Aborted of string

(* Per-gate robust side constraints as clause lists over (lit1, lit2)
   node-literal maps; [dir] is the on-path input transition (true =
   rising).  Also asserts exact on-path values. *)
let path_constraints c ~lit1 ~lit2 ~path ~rising emit =
  let unit_eq lit v = emit [ (if v then lit else Lit.negate lit) ] in
  let rec walk dir = function
    | [] | [ _ ] -> ()
    | n_j :: (n_next :: _ as rest) ->
      (match N.node c n_next with
       | N.Gate (g, fs) ->
         let sides = List.filter (fun w -> w <> n_j) fs in
         let steady w =
           (* v1(w) = v2(w) *)
           emit [ lit1 w; Lit.negate (lit2 w) ];
           emit [ Lit.negate (lit1 w); lit2 w ]
         in
         (match g with
          | Gate.And | Gate.Nand ->
            if dir then
              List.iter
                (fun w ->
                   unit_eq (lit1 w) true;
                   unit_eq (lit2 w) true)
                sides
            else List.iter (fun w -> unit_eq (lit2 w) true) sides
          | Gate.Or | Gate.Nor ->
            if not dir then
              List.iter
                (fun w ->
                   unit_eq (lit1 w) false;
                   unit_eq (lit2 w) false)
                sides
            else List.iter (fun w -> unit_eq (lit2 w) false) sides
          | Gate.Xor | Gate.Xnor -> List.iter steady sides
          | Gate.Not | Gate.Buf -> ());
         walk (dir <> Gate.inverting g) rest
       | N.Input | N.Const _ -> invalid_arg "path_constraints: bad path")
  in
  (* exact values along the path: rising j-node has v1=0, v2=1 *)
  let rec values dir = function
    | [] -> ()
    | n :: rest ->
      unit_eq (lit1 n) (not dir);
      unit_eq (lit2 n) dir;
      (match rest with
       | [] -> ()
       | next :: _ ->
         (match N.node c next with
          | N.Gate (g, _) -> values (dir <> Gate.inverting g) rest
          | N.Input | N.Const _ -> invalid_arg "path_constraints"))
  in
  values rising path;
  walk rising path

let extract c lit m =
  List.map (fun id ->
      let l = lit id in
      let v = m.(Lit.var l) in
      if Lit.is_pos l then v else not v)
    (N.inputs c)
  |> Array.of_list

let robust_test ?(config = Sat.Types.default) c ~path ~rising =
  if not (validate_path c path) then invalid_arg "robust_test: invalid path";
  let f = Cnf.Formula.create () in
  let lit1 = Circuit.Encode.encode_into f c in
  let lit2 = Circuit.Encode.encode_into f c in
  path_constraints c ~lit1 ~lit2 ~path ~rising (Cnf.Formula.add_clause_l f);
  let sess = Sat.Session.of_formula ~config f in
  match Sat.Session.solve sess with
  | Sat.Types.Sat m -> Test (extract c lit1 m, extract c lit2 m)
  | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ -> Untestable
  | Sat.Types.Unknown why -> Aborted why

type summary = {
  paths : int;
  testable : int;
  untestable : int;
  aborted : int;
  decisions : int;
  conflicts : int;
  time_seconds : float;
}

let test_paths ?(config = Sat.Types.default) ?(incremental = true) c paths =
  let t0 = Sat.Monotime.now_s () in
  let testable = ref 0 and untestable = ref 0 and aborted = ref 0 in
  let decisions = ref 0 and conflicts = ref 0 in
  if incremental then begin
    (* one session for the whole path list: the two circuit copies are
       encoded once; each (path, direction) query is an activation group
       that is released as soon as the query is answered *)
    let f = Cnf.Formula.create () in
    let lit1 = Circuit.Encode.encode_into f c in
    let lit2 = Circuit.Encode.encode_into f c in
    let sess = Sat.Session.of_formula ~config f in
    List.iter
      (fun path ->
         let tested =
           List.exists
             (fun rising ->
                let act = Sat.Session.new_activation sess in
                path_constraints c ~lit1 ~lit2 ~path ~rising (fun cl ->
                    Sat.Session.add_clause_in sess ~group:act cl);
                let r = Sat.Session.solve ~assumptions:[ act ] sess in
                Sat.Session.release sess act;
                match r with
                | Sat.Types.Sat _ -> true
                | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ -> false
                | Sat.Types.Unknown _ ->
                  incr aborted;
                  false)
             [ true; false ]
         in
         if tested then incr testable else incr untestable)
      paths;
    let st = Sat.Session.cumulative_stats sess in
    decisions := st.Sat.Types.decisions;
    conflicts := st.Sat.Types.conflicts
  end
  else
    List.iter
      (fun path ->
         let try_dir rising =
           let f = Cnf.Formula.create () in
           let lit1 = Circuit.Encode.encode_into f c in
           let lit2 = Circuit.Encode.encode_into f c in
           path_constraints c ~lit1 ~lit2 ~path ~rising
             (Cnf.Formula.add_clause_l f);
           let sess = Sat.Session.of_formula ~config f in
           let r = Sat.Session.solve sess in
           let st = Sat.Session.cumulative_stats sess in
           decisions := !decisions + st.Sat.Types.decisions;
           conflicts := !conflicts + st.Sat.Types.conflicts;
           match r with
           | Sat.Types.Sat _ -> true
           | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ -> false
           | Sat.Types.Unknown _ ->
             incr aborted;
             false
         in
         if try_dir true || try_dir false then incr testable
         else incr untestable)
      paths;
  {
    paths = List.length paths;
    testable = !testable;
    untestable = !untestable;
    aborted = !aborted;
    decisions = !decisions;
    conflicts = !conflicts;
    time_seconds = Sat.Monotime.now_s () -. t0;
  }
