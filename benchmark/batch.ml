(* Batch workloads over DIMACS inputs: fixed structured instances plus a
   pool of random 3-SAT whose answers are fixed before timing starts. *)

type input = { label : string; text : string; mutable expect : Oracle.answer }
type t = { mutable inputs : input array; pool : Oracle.pool }

let create fixed pool =
  { inputs =
      Array.of_list
        (List.map
           (fun (label, f, expect) -> { label; text = Cnf.Dimacs.to_string f; expect })
           fixed);
    pool }

(* Certify the pool and append the kept formulas. *)
let prepare t =
  let picked =
    List.mapi
      (fun i (f, expect) ->
        { label = Printf.sprintf "3sat%d-%d" t.pool.Oracle.nvars i;
          text = Cnf.Dimacs.to_string f; expect })
      (Oracle.select t.pool)
  in
  t.inputs <- Array.append t.inputs (Array.of_list picked)

let sabotage t = t.inputs.(0).expect <- Oracle.flip t.inputs.(0).expect

let formulas t =
  Array.to_list (Array.map (fun i -> Cnf.Dimacs.parse_string i.text) t.inputs)
