module N = Circuit.Netlist
module Gate = Circuit.Gate
module Lit = Cnf.Lit

type fault = { node : N.node_id; stuck_at : bool }

let pp_fault c ppf f =
  Format.fprintf ppf "%s/sa%d" (N.name c f.node) (if f.stuck_at then 1 else 0)

let fault_list c =
  let fs = ref [] in
  for id = N.num_nodes c - 1 downto 0 do
    match N.node c id with
    | N.Input | N.Gate _ ->
      fs := { node = id; stuck_at = false } :: { node = id; stuck_at = true } :: !fs
    | N.Const _ -> ()
  done;
  !fs

(* in-cone flags for the transitive fanout of the fault site *)
let cone_flags c node =
  let flags = Array.make (max 1 (N.num_nodes c)) false in
  List.iter (fun x -> flags.(x) <- true) (N.transitive_fanout c node);
  flags

let instance c fault =
  let m = N.create () in
  let shared =
    List.map (fun id -> N.add_input ~name:(N.name c id) m) (N.inputs c)
  in
  let input_map =
    let table = Hashtbl.create 16 in
    List.iter2 (fun src dst -> Hashtbl.replace table src dst) (N.inputs c) shared;
    fun id -> Hashtbl.find_opt table id
  in
  let good = N.import c ~into:m ~map_node:input_map in
  let cone = cone_flags c fault.node in
  let faulty = Array.make (max 1 (N.num_nodes c)) (-1) in
  for id = 0 to N.num_nodes c - 1 do
    if cone.(id) then
      if id = fault.node then faulty.(id) <- N.add_const m fault.stuck_at
      else
        match N.node c id with
        | N.Gate (g, fs) ->
          let pick f = if cone.(f) then faulty.(f) else good.(f) in
          faulty.(id) <- N.add_gate m g (List.map pick fs)
        | N.Input | N.Const _ -> assert false
  done;
  let affected =
    List.filter (fun o -> cone.(o)) (N.output_ids c)
  in
  let diffs =
    List.map (fun o -> N.add_gate m Gate.Xor [ good.(o); faulty.(o) ]) affected
  in
  let diff =
    match diffs with
    | [] -> N.add_const m false (* fault unobservable: instance is UNSAT *)
    | [ d ] -> N.add_gate ~name:"diff" m Gate.Buf [ d ]
    | ds -> N.add_gate ~name:"diff" m Gate.Or ds
  in
  N.set_output m diff;
  (m, [ (good.(fault.node), not fault.stuck_at); (diff, true) ])

type test_outcome = Test of bool array | Redundant | Aborted of string

let generate_test ?(config = Sat.Types.default) ?(use_structural = false) c
    fault =
  let inst, objectives = instance c fault in
  let r = Csat.solve ~config ~use_layer:use_structural ~objectives inst in
  let n_inputs = List.length (N.inputs c) in
  match r.Csat.outcome with
  | Sat.Types.Sat _ ->
    let vec = Array.make n_inputs false in
    List.iteri
      (fun i id ->
         match List.assoc_opt id r.Csat.pattern with
         | Some b -> vec.(i) <- b
         | None -> ())
      (N.inputs inst);
    (Test vec, r.Csat.stats)
  | Sat.Types.Unsat -> (Redundant, r.Csat.stats)
  | Sat.Types.Unsat_assuming _ -> (Redundant, r.Csat.stats)
  | Sat.Types.Unknown why -> (Aborted why, r.Csat.stats)

(* --- bit-parallel fault simulation -------------------------------------- *)

let pack_vectors vectors n_inputs =
  (* groups of up to [word_width] vectors -> one word array per group *)
  let rec chunks = function
    | [] -> []
    | vs ->
      let rec take n acc = function
        | [] -> (List.rev acc, [])
        | v :: rest ->
          if n = 0 then (List.rev acc, v :: rest)
          else take (n - 1) (v :: acc) rest
      in
      let batch, rest = take Circuit.Simulate.word_width [] vs in
      batch :: chunks rest
  in
  chunks vectors
  |> List.map (fun batch ->
      let words = Array.make n_inputs 0 in
      List.iteri
        (fun b (v : bool array) ->
           Array.iteri (fun i x -> if x then words.(i) <- words.(i) lor (1 lsl b)) v)
        batch;
      words)

let fault_simulate c faults vectors =
  let n_inputs = List.length (N.inputs c) in
  let out_ids = N.output_ids c in
  let batches = pack_vectors vectors n_inputs in
  let detected f =
    List.exists
      (fun words ->
         let good = Circuit.Simulate.parallel_all c words in
         let cone = cone_flags c f.node in
         let faulty = Array.copy good in
         let full = (1 lsl Circuit.Simulate.word_width) - 1 in
         faulty.(f.node) <- (if f.stuck_at then full else 0);
         for id = 0 to N.num_nodes c - 1 do
           if cone.(id) && id <> f.node then
             match N.node c id with
             | N.Gate (g, fs) ->
               faulty.(id) <-
                 Circuit.Simulate.parallel_gate g
                   (List.map (fun x -> faulty.(x)) fs)
             | N.Input | N.Const _ -> ()
         done;
         List.exists (fun o -> good.(o) lxor faulty.(o) <> 0) out_ids)
      batches
  in
  List.filter detected faults

(* --- full flows ---------------------------------------------------------- *)

type summary = {
  total : int;
  detected : int;
  redundant : int;
  aborted : int;
  vectors : bool array list;
  sat_calls : int;
  dropped_by_simulation : int;
  decisions : int;
  conflicts : int;
  time_seconds : float;
}

let pp_summary ppf s =
  Format.fprintf ppf
    "faults=%d detected=%d redundant=%d aborted=%d vectors=%d sat_calls=%d \
     dropped=%d decisions=%d conflicts=%d time=%.3fs"
    s.total s.detected s.redundant s.aborted (List.length s.vectors)
    s.sat_calls s.dropped_by_simulation s.decisions s.conflicts s.time_seconds

let fault_time_hist metrics =
  Option.map
    (fun m ->
       Sat.Metrics.histogram m "atpg/fault_time_s"
         ~bounds:Sat.Metrics.time_bounds)
    metrics

let write_counters metrics s =
  Option.iter
    (fun m ->
       let set name v = Sat.Metrics.set_counter (Sat.Metrics.counter m name) v in
       set "atpg/faults" s.total;
       set "atpg/detected" s.detected;
       set "atpg/redundant" s.redundant;
       set "atpg/aborted" s.aborted;
       set "atpg/sat_calls" s.sat_calls;
       set "atpg/dropped_by_simulation" s.dropped_by_simulation)
    metrics

let run ?metrics ?(config = Sat.Types.default) ?(use_structural = false)
    ?(fault_simulation = true) ?(random_patterns = 0) c =
  let t0 = Sat.Monotime.now_s () in
  let fault_time = fault_time_hist metrics in
  let faults = fault_list c in
  let dropped = Hashtbl.create 64 in
  let detected = ref 0
  and redundant = ref 0
  and aborted = ref 0
  and sat_calls = ref 0
  and dropped_count = ref 0
  and decisions = ref 0
  and conflicts = ref 0 in
  let vectors = ref [] in
  (* random-pattern phase: easy-to-test faults never reach SAT *)
  if random_patterns > 0 then begin
    let rng = Sat.Rng.create config.Sat.Types.random_seed in
    let n_inputs = List.length (N.inputs c) in
    for _ = 1 to random_patterns do
      let words = Circuit.Simulate.random_words rng n_inputs in
      let batch =
        List.init Circuit.Simulate.word_width (fun b ->
            Array.map (fun w -> w land (1 lsl b) <> 0) words)
      in
      let remaining =
        List.filter
          (fun g -> not (Hashtbl.mem dropped (g.node, g.stuck_at)))
          faults
      in
      let hit = fault_simulate c remaining batch in
      if hit <> [] then begin
        List.iter (fun g -> Hashtbl.replace dropped (g.node, g.stuck_at) ()) hit;
        vectors := List.rev_append batch !vectors
      end
    done
  end;
  List.iter
    (fun f ->
       if Hashtbl.mem dropped (f.node, f.stuck_at) then begin
         incr dropped_count;
         incr detected
       end
       else begin
         incr sat_calls;
         let ft0 = Sat.Monotime.now_s () in
         let outcome, st = generate_test ~config ~use_structural c f in
         Option.iter
           (fun h -> Sat.Metrics.observe h (Sat.Monotime.now_s () -. ft0))
           fault_time;
         Option.iter (fun m -> Sat.Metrics.add_stats m st) metrics;
         decisions := !decisions + st.Sat.Types.decisions;
         conflicts := !conflicts + st.Sat.Types.conflicts;
         match outcome with
         | Test v ->
           incr detected;
           vectors := v :: !vectors;
           if fault_simulation then begin
             let remaining =
               List.filter
                 (fun g -> not (Hashtbl.mem dropped (g.node, g.stuck_at)))
                 faults
             in
             List.iter
               (fun g -> Hashtbl.replace dropped (g.node, g.stuck_at) ())
               (fault_simulate c remaining [ v ])
           end
         | Redundant -> incr redundant
         | Aborted _ -> incr aborted
       end)
    faults;
  let s =
    {
      total = List.length faults;
      detected = !detected;
      redundant = !redundant;
      aborted = !aborted;
      vectors = List.rev !vectors;
      sat_calls = !sat_calls;
      dropped_by_simulation = !dropped_count;
      decisions = !decisions;
      conflicts = !conflicts;
      time_seconds = Sat.Monotime.now_s () -. t0;
    }
  in
  write_counters metrics s;
  s

(* Incremental formulation: one session; the fault-free circuit is
   encoded once, each fault's faulty cone is an activation group that is
   released once the fault is resolved.  The session's between-query
   retention pass then drops learned clauses polluted by released
   activation literals.  [on_query] observes each fault's per-query
   statistics delta. *)
let run_incremental ?metrics ?trace ?(config = Sat.Types.default)
    ?(on_query = fun _ _ -> ()) c =
  let t0 = Sat.Monotime.now_s () in
  let fault_time = fault_time_hist metrics in
  let enc = Circuit.Encode.encode c in
  let sess = Sat.Session.of_formula ~config enc.Circuit.Encode.formula in
  Option.iter (Sat.Session.attach_metrics sess) metrics;
  (match trace with
   | Some _ -> Sat.Session.set_tracer sess trace
   | None -> ());
  let fresh () = Lit.pos (Sat.Session.new_var sess) in
  let faults = fault_list c in
  let detected = ref 0
  and redundant = ref 0
  and aborted = ref 0 in
  let vectors = ref [] in
  let inputs = N.inputs c in
  List.iter
    (fun f ->
       let ft0 = Sat.Monotime.now_s () in
       let base_var = Sat.Session.nvars sess in
       let act = Sat.Session.new_activation sess in
       let guard clause = Sat.Session.add_clause_in sess ~group:act clause in
       let cone = cone_flags c f.node in
       let faulty = Array.make (max 1 (N.num_nodes c)) (Lit.pos 0) in
       for id = 0 to N.num_nodes c - 1 do
         if cone.(id) then
           if id = f.node then begin
             let fv = fresh () in
             faulty.(id) <- fv;
             guard [ (if f.stuck_at then fv else Lit.negate fv) ]
           end
           else
             match N.node c id with
             | N.Gate (g, fs) ->
               let out = fresh () in
               faulty.(id) <- out;
               let pick x =
                 if cone.(x) then faulty.(x)
                 else enc.Circuit.Encode.lit_of_node x
               in
               let ins = List.map pick fs in
               (* guarded Table-1 clauses; n-ary XORs chained *)
               let rec emit out ins g =
                 match g, ins with
                 | (Gate.Xor | Gate.Xnor), _ :: _ :: _ :: _ ->
                   (match ins with
                    | a :: b :: rest ->
                      let aux = fresh () in
                      List.iter
                        (fun cl -> guard (Cnf.Clause.to_list cl))
                        (Circuit.Encode.gate_clauses ~out:aux ~ins:[ a; b ]
                           Gate.Xor);
                      emit out (aux :: rest) g
                    | _ -> assert false)
                 | _ ->
                   List.iter
                     (fun cl -> guard (Cnf.Clause.to_list cl))
                     (Circuit.Encode.gate_clauses ~out ~ins g)
               in
               emit out ins g
             | N.Input | N.Const _ -> assert false
       done;
       let affected = List.filter (fun o -> cone.(o)) (N.output_ids c) in
       if affected = [] then incr redundant
       else begin
         let diffs =
           List.map
             (fun o ->
                let d = fresh () in
                List.iter
                  (fun cl -> guard (Cnf.Clause.to_list cl))
                  (Circuit.Encode.gate_clauses ~out:d
                     ~ins:[ enc.Circuit.Encode.lit_of_node o; faulty.(o) ]
                     Gate.Xor);
                d)
             affected
         in
         guard diffs;
         (* fault activation *)
         let site = enc.Circuit.Encode.lit_of_node f.node in
         guard [ (if f.stuck_at then Lit.negate site else site) ];
         (match Sat.Session.solve ~assumptions:[ act ] sess with
          | Sat.Types.Sat m ->
            incr detected;
            let vec =
              List.map
                (fun id -> m.(Lit.var (enc.Circuit.Encode.lit_of_node id)))
                inputs
              |> Array.of_list
            in
            vectors := vec :: !vectors
          | Sat.Types.Unsat | Sat.Types.Unsat_assuming _ -> incr redundant
          | Sat.Types.Unknown _ -> incr aborted);
         on_query f (Sat.Session.last_stats sess)
       end;
       (* retire this fault's group and pin its now-unconstrained
          variables so later solves never branch on them *)
       Sat.Session.release sess act;
       for v = base_var + 1 to Sat.Session.nvars sess - 1 do
         Sat.Session.add_clause sess [ Lit.neg_of_var v ]
       done;
       Option.iter
         (fun h -> Sat.Metrics.observe h (Sat.Monotime.now_s () -. ft0))
         fault_time)
    faults;
  let st = Sat.Session.cumulative_stats sess in
  let s =
    {
      total = List.length faults;
      detected = !detected;
      redundant = !redundant;
      aborted = !aborted;
      vectors = List.rev !vectors;
      sat_calls = List.length faults;
      dropped_by_simulation = 0;
      decisions = st.Sat.Types.decisions;
      conflicts = st.Sat.Types.conflicts;
      time_seconds = Sat.Monotime.now_s () -. t0;
    }
  in
  write_counters metrics s;
  s
