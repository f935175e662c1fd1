module Lit = Cnf.Lit

type result =
  | Refuted of int
  | Saturated of Cnf.Lit.t list

exception Contradiction

(* One depth-k saturation round over every variable; returns true when
   some new literal was asserted.  Raises [Contradiction] when both
   branches of some split conflict. *)
let rec round s ~depth =
  let progress = ref false in
  let assert_lit l =
    if not (Cdcl.probe_assert s l) then raise Contradiction;
    progress := true
  in
  for v = 0 to Cdcl.nvars s - 1 do
    if Cdcl.value_var s v < 0 then begin
      let branch l =
        match Cdcl.probe_push s l with
        | Cdcl.Probe_conflict -> None
        | Cdcl.Probe_ok (i, j) ->
          let j =
            if depth <= 1 then j
            else begin
              (* saturate recursively inside the branch *)
              (try
                 while round s ~depth:(depth - 1) do
                   ()
                 done
               with Contradiction ->
                 Cdcl.probe_pop s;
                 raise Exit);
              (* everything implied since the split *)
              Cdcl.trail_size s
            end
          in
          let implied = List.init (j - i) (fun k -> Cdcl.trail_get s (i + k)) in
          Cdcl.probe_pop s;
          Some implied
      in
      let pos = (try branch (Lit.pos v) with Exit -> None) in
      let neg = (try branch (Lit.neg_of_var v) with Exit -> None) in
      match pos, neg with
      | None, None -> raise Contradiction
      | None, Some _ -> assert_lit (Lit.neg_of_var v)
      | Some _, None -> assert_lit (Lit.pos v)
      | Some il, Some ir ->
        (* dilemma: assignments implied by both branches are necessary *)
        List.iter
          (fun l -> if Cdcl.value s l < 0 then assert_lit l)
          (List.filter (fun l -> List.mem l ir) il)
    end
  done;
  !progress

let saturate ?(depth = 1) f =
  let s = Cdcl.create f in
  if not (Cdcl.propagate_root s) then Refuted 0
  else begin
    let rec try_depth d =
      if d > depth then
        Saturated (List.init (Cdcl.trail_size s) (Cdcl.trail_get s))
      else
        match
          (try
             while round s ~depth:d do
               ()
             done;
             `Saturated
           with Contradiction -> `Refuted)
        with
        | `Refuted -> Refuted d
        | `Saturated -> try_depth (d + 1)
    in
    try_depth 1
  end

let prove_unsat ?depth f =
  match saturate ?depth f with
  | Refuted _ -> true
  | Saturated _ -> false
