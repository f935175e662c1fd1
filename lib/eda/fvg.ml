module N = Circuit.Netlist
module Lit = Cnf.Lit

type objective = N.node_id * bool

let toggle_objectives c =
  let objs = ref [] in
  for id = N.num_nodes c - 1 downto 0 do
    match N.node c id with
    | N.Gate _ -> objs := (id, false) :: (id, true) :: !objs
    | N.Input | N.Const _ -> ()
  done;
  !objs

type report = {
  objectives : int;
  covered : int;
  unreachable : int;
  vectors : bool array list;
  sat_calls : int;
  dropped_by_simulation : int;
  time_seconds : float;
}

let generate ?(config = Sat.Types.default) ?(random_warmup = 2) c objectives =
  let t0 = Sat.Monotime.now_s () in
  let n_inputs = List.length (N.inputs c) in
  let enc = Circuit.Encode.encode c in
  (* one session serves every coverage objective *)
  let sess = Sat.Session.of_formula ~config enc.Circuit.Encode.formula in
  let pending = Hashtbl.create 64 in
  List.iter (fun o -> Hashtbl.replace pending o ()) objectives;
  let vectors = ref [] in
  let sat_calls = ref 0
  and dropped = ref 0
  and unreachable = ref 0 in
  (* simulate packed vectors, dropping covered objectives; [mask]
     selects which word bits correspond to real vectors *)
  let simulate_snapshot ~credit ~mask words =
    let values = Circuit.Simulate.parallel_all c words in
    let snapshot = Hashtbl.fold (fun k () acc -> k :: acc) pending [] in
    List.iter
      (fun (node, v) ->
         let bits = if v then values.(node) else lnot values.(node) in
         if bits land mask <> 0 && Hashtbl.mem pending (node, v) then begin
           Hashtbl.remove pending (node, v);
           if credit then incr dropped
         end)
      snapshot
  in
  let full_mask = (1 lsl Circuit.Simulate.word_width) - 1 in
  let rng = Sat.Rng.create config.Sat.Types.random_seed in
  let warmup_vectors = ref [] in
  for _ = 1 to random_warmup do
    let words = Circuit.Simulate.random_words rng n_inputs in
    for b = 0 to Circuit.Simulate.word_width - 1 do
      warmup_vectors :=
        Array.map (fun w -> w land (1 lsl b) <> 0) words :: !warmup_vectors
    done;
    simulate_snapshot ~credit:true ~mask:full_mask words
  done;
  List.iter
    (fun (node, v) ->
       if Hashtbl.mem pending (node, v) then begin
         incr sat_calls;
         let l = enc.Circuit.Encode.lit_of_node node in
         let assumption = if v then l else Lit.negate l in
         match Sat.Session.solve ~assumptions:[ assumption ] sess with
         | Sat.Types.Sat m ->
           let vec =
             List.map
               (fun id -> m.(Lit.var (enc.Circuit.Encode.lit_of_node id)))
               (N.inputs c)
             |> Array.of_list
           in
           vectors := vec :: !vectors;
           Hashtbl.remove pending (node, v);
           (* drop other objectives covered by this vector *)
           let words = Array.map (fun b -> if b then 1 else 0) vec in
           simulate_snapshot ~credit:true ~mask:1 words
         | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ ->
           incr unreachable;
           Hashtbl.remove pending (node, v)
         | Sat.Types.Unknown _ -> Hashtbl.remove pending (node, v)
       end)
    objectives;
  let total = List.length objectives in
  {
    objectives = total;
    covered = total - !unreachable;
    unreachable = !unreachable;
    vectors = List.rev !vectors @ !warmup_vectors;
    sat_calls = !sat_calls;
    dropped_by_simulation = !dropped;
    time_seconds = Sat.Monotime.now_s () -. t0;
  }
