(* DRAT proof checking, backward trimming to LRAT, and unsat cores.
   The format and algorithms are specified in docs/PROOFS.md; keep the
   two in sync. *)

module Lit = Cnf.Lit
module Clause = Cnf.Clause

type step = Types.proof_step = Add of Clause.t | Delete of Clause.t

type verdict =
  | Valid_refutation
  | Valid_derivation
  | Invalid_step of int

type lrat_line = { id : int; lits : Clause.t; hints : int list }

type trim_result =
  | Trimmed of {
      lines : lrat_line list;
      core : int list;
      kept_adds : int;
      total_adds : int;
    }
  | Not_refutation
  | Trim_invalid of int

(* ------------------------------------------------------------------ *)
(* Checker clause database.  Clauses live in a table indexed by id
   (originals 1..n in formula order, then additions in stream order).
   Watch lists use the solver's Watcher layout — a blocking literal
   plus a clause id per entry — and hold active clauses only:
   deactivating a clause unwatches it and reactivating rewatches it, so
   propagation never visits a deleted clause or a lemma the backward
   pass has not reached yet.  Deletions are matched on the sorted
   clause content.  Each RUP check propagates on a scratch trail that
   is unwound afterwards, so (de)activation always happens with nothing
   assigned and any two literals of a clause are valid watches.  Hint
   lists, and so which additions a trim keeps, follow the watch order:
   docs/PROOFS.md, "The checker's clause database".                   *)
(* ------------------------------------------------------------------ *)

type cls = {
  id : int; (* index in [db.clauses] *)
  clause : Clause.t; (* sorted content: deletion key and LRAT literals *)
  lits : Lit.t array; (* watches live in slots 0 and 1 when size >= 2 *)
  mutable active : bool;
  mutable marked : bool; (* needed for the refutation (backward trim) *)
}

type db = {
  clauses : cls Vec.t; (* id -> clause; slot 0 is a placeholder *)
  stacks : (Clause.t, cls list ref) Hashtbl.t;
      (* content -> active copies, most recent first *)
  watches : Watcher.t array; (* literal-indexed, active clauses only *)
  mutable units : cls list; (* every size-1 clause ever added *)
  mutable empties : cls list; (* every size-0 clause ever added *)
  value : int array; (* var -> 0 unassigned / 1 true / -1 false *)
  reason : int array; (* var -> asserting clause id; 0 = assumption *)
  seen : bool array; (* conflict-analysis scratch, cleared after use *)
  trail : Lit.t Vec.t;
  mutable qhead : int;
}

let lit_value db l =
  let v = db.value.(Lit.var l) in
  if v = 0 then 0 else if Lit.is_pos l then v else -v

let max_var_steps steps =
  List.fold_left
    (fun acc s ->
      let c = match s with Add c | Delete c -> c in
      List.fold_left (fun acc l -> max acc (Lit.var l)) acc (Clause.to_list c))
    (-1) steps

let dummy_cls =
  { id = 0; clause = Clause.of_list []; lits = [||]; active = false;
    marked = false }

let stack db clause =
  match Hashtbl.find_opt db.stacks clause with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add db.stacks clause r;
    r

let watch db c =
  c.active <- true;
  let lits = c.lits in
  if Array.length lits >= 2 then begin
    Watcher.push db.watches.(lits.(0)) lits.(1) c.id;
    Watcher.push db.watches.(lits.(1)) lits.(0) c.id
  end

let unwatch db c =
  c.active <- false;
  let lits = c.lits in
  if Array.length lits >= 2 then begin
    let other r = r <> c.id in
    Watcher.filter_in_place other db.watches.(lits.(0));
    Watcher.filter_in_place other db.watches.(lits.(1))
  end

let add_active db clause =
  let c =
    {
      id = Vec.size db.clauses;
      clause;
      lits = Clause.to_array clause;
      active = false;
      marked = false;
    }
  in
  Vec.push db.clauses c;
  (match Array.length c.lits with
   | 0 -> db.empties <- c :: db.empties
   | 1 -> db.units <- c :: db.units
   | _ -> ());
  watch db c;
  let r = stack db clause in
  r := c :: !r;
  c

(* Deletion by content: deactivate the most recently added active copy.
   Unmatched deletions (e.g. of clauses imported from a peer solver and
   never added to this proof) are ignored. *)
let try_deactivate db clause =
  let r = stack db clause in
  match !r with
  | [] -> None
  | c :: rest ->
    r := rest;
    unwatch db c;
    Some c

let build formula steps =
  let nvars =
    max (Cnf.Formula.nvars formula) (max_var_steps steps + 1)
  in
  let db =
    {
      clauses =
        Vec.create ~capacity:(Cnf.Formula.nclauses formula + 1)
          ~dummy:dummy_cls ();
      stacks = Hashtbl.create 4096;
      watches = Array.init (2 * nvars) (fun _ -> Watcher.create ());
      units = [];
      empties = [];
      value = Array.make (max nvars 1) 0;
      reason = Array.make (max nvars 1) 0;
      seen = Array.make (max nvars 1) false;
      trail = Vec.create ~dummy:0 ();
      qhead = 0;
    }
  in
  Vec.push db.clauses dummy_cls;
  Array.iter (fun c -> ignore (add_active db c)) (Cnf.Formula.clauses formula);
  db

let enqueue db l reason_id =
  db.value.(Lit.var l) <- (if Lit.is_pos l then 1 else -1);
  db.reason.(Lit.var l) <- reason_id;
  Vec.push db.trail l

let propagate db =
  let confl = ref 0 in
  while !confl = 0 && db.qhead < Vec.size db.trail do
    let l = Vec.get db.trail db.qhead in
    db.qhead <- db.qhead + 1;
    let fl = Lit.negate l in
    let ws = db.watches.(fl) in
    let n = Watcher.size ws in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let b = Watcher.unsafe_blocker ws !i in
      let cref = Watcher.unsafe_cref ws !i in
      incr i;
      if lit_value db b = 1 then begin
        Watcher.unsafe_set ws !j b cref;
        incr j
      end
      else begin
        let lits = (Vec.get db.clauses cref).lits in
        if lits.(0) = fl then begin
          lits.(0) <- lits.(1);
          lits.(1) <- fl
        end;
        let w0 = lits.(0) in
        if w0 <> b && lit_value db w0 = 1 then begin
          Watcher.unsafe_set ws !j w0 cref;
          incr j
        end
        else begin
          let len = Array.length lits in
          let k = ref 2 in
          while !k < len && lit_value db lits.(!k) = -1 do
            incr k
          done;
          if !k < len then begin
            (* relocate the false watch; drop from this list *)
            lits.(1) <- lits.(!k);
            lits.(!k) <- fl;
            Watcher.push db.watches.(lits.(1)) w0 cref
          end
          else begin
            Watcher.unsafe_set ws !j w0 cref;
            incr j;
            if lit_value db w0 = -1 then begin
              confl := cref;
              while !i < n do
                Watcher.unsafe_set ws !j (Watcher.unsafe_blocker ws !i)
                  (Watcher.unsafe_cref ws !i);
                incr j;
                incr i
              done
            end
            else enqueue db w0 cref
          end
        end
      end
    done;
    Watcher.shrink ws !j
  done;
  !confl

(* RUP check: assert the negation of every literal of [lits], propagate
   active unit clauses to fixpoint.  Returns the conflicting clause id,
   or 0 if no conflict (the clause is not RUP).  The trail is left in
   place so hints can be extracted; the caller must [unwind]. *)
let check_rup db lits =
  let confl = ref 0 in
  (match List.find_opt (fun c -> c.active) db.empties with
  | Some c -> confl := c.id
  | None -> ());
  Array.iter
    (fun l ->
      (* a literal already true is a duplicate assumption; one already
         false means a tautological input, which callers filter out *)
      let nl = Lit.negate l in
      if !confl = 0 && lit_value db nl = 0 then enqueue db nl 0)
    lits;
  List.iter
    (fun c ->
      if !confl = 0 && c.active then
        let u = c.lits.(0) in
        match lit_value db u with
        | 1 -> ()
        | -1 -> confl := c.id
        | _ -> enqueue db u c.id)
    db.units;
  if !confl = 0 then confl := propagate db;
  !confl

let unwind db =
  Vec.iter (fun l -> db.value.(Lit.var l) <- 0) db.trail;
  Vec.clear db.trail;
  db.qhead <- 0

(* From a conflict, collect the antecedent hint ids: mark the conflict
   clause's variables, walk the trail backward including each used
   reason transitively, and return the used reason ids in trail order
   followed by the conflicting clause id — exactly the order in which
   an LRAT checker can replay them as unit propagations.  When [mark],
   flag every hint clause as needed for the refutation. *)
let analyze db confl_id ~mark =
  let touched = ref [] in
  let mark_clause c =
    if mark then c.marked <- true;
    Array.iter
      (fun l ->
        let v = Lit.var l in
        if not db.seen.(v) then begin
          db.seen.(v) <- true;
          touched := v :: !touched
        end)
      c.lits
  in
  mark_clause (Vec.get db.clauses confl_id);
  let hints = ref [] in
  for i = Vec.size db.trail - 1 downto 0 do
    let v = Lit.var (Vec.get db.trail i) in
    if db.seen.(v) then begin
      let r = db.reason.(v) in
      if r > 0 then begin
        mark_clause (Vec.get db.clauses r);
        hints := r :: !hints
      end
    end
  done;
  List.iter (fun v -> db.seen.(v) <- false) !touched;
  !hints @ [ confl_id ]

(* ------------------------------------------------------------------ *)
(* Forward checking                                                    *)
(* ------------------------------------------------------------------ *)

let check formula steps =
  let db = build formula steps in
  let rec go i = function
    | [] ->
      let confl = check_rup db [||] in
      unwind db;
      if confl <> 0 then Valid_refutation else Valid_derivation
    | Add c :: rest when Clause.is_tautology c ->
      (* tautologies are trivially valid and propagation-inert *)
      go (i + 1) rest
    | Add c :: rest ->
      let confl = check_rup db (Clause.to_array c) in
      unwind db;
      if confl = 0 then Invalid_step i
      else if Clause.is_empty c then Valid_refutation
      else begin
        ignore (add_active db c);
        go (i + 1) rest
      end
    | Delete c :: rest ->
      if not (Clause.is_tautology c) then ignore (try_deactivate db c);
      go (i + 1) rest
  in
  go 0 steps

(* ------------------------------------------------------------------ *)
(* Backward trimming                                                   *)
(* ------------------------------------------------------------------ *)

type replayed = R_add of cls | R_del of cls option

let trim formula steps =
  let db = build formula steps in
  let n_orig = Cnf.Formula.nclauses formula in
  (* Forward ingestion, no checking: replay adds/deletes so the final
     active set is in place, remembering each effect for the backward
     undo.  An explicit empty-clause addition truncates the stream. *)
  let rec ingest i acc = function
    | [] -> List.rev acc
    | Add c :: _ when Clause.is_empty c -> List.rev acc
    | Add c :: rest when Clause.is_tautology c -> ingest (i + 1) acc rest
    | Add c :: rest ->
      let cl = add_active db c in
      ingest (i + 1) ((i, R_add cl) :: acc) rest
    | Delete c :: rest when Clause.is_tautology c -> ingest (i + 1) acc rest
    | Delete c :: rest ->
      let t = try_deactivate db c in
      ingest (i + 1) ((i, R_del t) :: acc) rest
  in
  let recs = ingest 0 [] steps in
  let total_adds =
    List.length (List.filter (function _, R_add _ -> true | _ -> false) recs)
  in
  (* Terminal conflict: the empty clause must be RUP over the final
     active set.  This also covers proofs with no explicit empty clause
     (the CDCL engine stops at the root conflict without recording
     one). *)
  let confl = check_rup db [||] in
  if confl = 0 then begin
    unwind db;
    Not_refutation
  end
  else begin
    let terminal_hints = analyze db confl ~mark:true in
    unwind db;
    let terminal =
      { id = Vec.size db.clauses; lits = Clause.of_list [];
        hints = terminal_hints }
    in
    (* Backward pass: undo each step; verify (and collect hints for)
       only the additions marked as needed.  Unmarked additions are
       trimmed from the certificate without validation.  Deletions are
       no longer matched by content from here on, so the undo touches
       the watch lists only. *)
    let exception Invalid of int in
    let lines = ref [ terminal ] in
    match
      List.iter
        (fun (idx, r) ->
          match r with
          | R_del None -> ()
          | R_del (Some c) -> watch db c
          | R_add c ->
            unwatch db c;
            if c.marked then begin
              let confl = check_rup db c.lits in
              if confl = 0 then begin
                unwind db;
                raise (Invalid idx)
              end;
              let hints = analyze db confl ~mark:true in
              unwind db;
              lines := { id = c.id; lits = c.clause; hints } :: !lines
            end)
        (List.rev recs)
    with
    | () ->
      let core = ref [] in
      for id = n_orig downto 1 do
        if (Vec.get db.clauses id).marked then core := id :: !core
      done;
      Trimmed
        {
          lines = !lines;
          core = !core;
          kept_adds = List.length !lines - 1;
          total_adds;
        }
    | exception Invalid idx -> Trim_invalid idx
  end

let core_clauses formula core =
  let cls = Cnf.Formula.clauses formula in
  List.map (fun id -> cls.(id - 1)) core

let core_formula formula core =
  Cnf.Formula.of_clauses
    ~nvars:(Cnf.Formula.nvars formula)
    (core_clauses formula core)

(* ------------------------------------------------------------------ *)
(* Independent LRAT checking (linear, hint-driven; no search)          *)
(* ------------------------------------------------------------------ *)

let check_lrat formula lines =
  let ( let* ) = Result.bind in
  let err line fmt = Format.kasprintf (fun m -> Error (Printf.sprintf "line %d: %s" line m)) fmt in
  let tbl : (int, Lit.t array) Hashtbl.t = Hashtbl.create 4096 in
  let cls = Cnf.Formula.clauses formula in
  Array.iteri (fun i c -> Hashtbl.replace tbl (i + 1) (Clause.to_array c)) cls;
  let nvars =
    List.fold_left
      (fun acc (ln : lrat_line) ->
        List.fold_left
          (fun a l -> max a (Lit.var l + 1))
          acc
          (Clause.to_list ln.lits))
      (Cnf.Formula.nvars formula)
      lines
  in
  let value = Array.make (max nvars 1) 0 in
  let lit_value l =
    let v = value.(Lit.var l) in
    if v = 0 then 0 else if Lit.is_pos l then v else -v
  in
  let assigned = ref [] in
  let assign l =
    value.(Lit.var l) <- (if Lit.is_pos l then 1 else -1);
    assigned := Lit.var l :: !assigned
  in
  let unwind () =
    List.iter (fun v -> value.(v) <- 0) !assigned;
    assigned := []
  in
  let check_line lineno ({ id; lits; hints } : lrat_line) last_id =
    if id <= last_id then err lineno "id %d not above previous id %d" id last_id
    else if Clause.is_tautology lits then begin
      (* trivially valid; our writer never emits these *)
      Hashtbl.replace tbl id (Clause.to_array lits);
      Ok id
    end
    else begin
      List.iter (fun l -> assign (Lit.negate l)) (Clause.to_list lits);
      let rec run = function
        | [] -> err lineno "hints ended without a conflict"
        | h :: rest ->
          if h <= 0 then err lineno "RAT hint %d unsupported" h
          else begin
            match Hashtbl.find_opt tbl h with
            | None -> err lineno "hint %d names an unknown clause" h
            | Some hlits ->
              let unassigned = ref 0 in
              let pivot = ref 0 in
              let satisfied = ref false in
              Array.iter
                (fun l ->
                  match lit_value l with
                  | 1 -> satisfied := true
                  | -1 -> ()
                  | _ ->
                    incr unassigned;
                    pivot := l)
                hlits;
              if !satisfied then err lineno "hint %d is satisfied, not unit" h
              else if !unassigned = 0 then
                if rest = [] then Ok ()
                else err lineno "hint %d conflicts before the final hint" h
              else if !unassigned = 1 then begin
                assign !pivot;
                run rest
              end
              else err lineno "hint %d is not unit (%d unassigned)" h !unassigned
          end
      in
      let r = run hints in
      unwind ();
      let* () = r in
      Hashtbl.replace tbl id (Clause.to_array lits);
      Ok id
    end
  in
  let rec go lineno last_id = function
    | [] -> Error "proof ends without an empty-clause line"
    | [ (last : lrat_line) ] ->
      if not (Clause.is_empty last.lits) then
        err lineno "final line is not the empty clause"
      else
        let* _ = check_line lineno last last_id in
        Ok ()
    | line :: rest ->
      let* last_id = check_line lineno line last_id in
      go (lineno + 1) last_id rest
  in
  go 1 (Array.length cls) lines

(* ------------------------------------------------------------------ *)
(* Text formats                                                        *)
(* ------------------------------------------------------------------ *)

let output_step buf step =
  let c, del = match step with Add c -> (c, false) | Delete c -> (c, true) in
  if del then Buffer.add_string buf "d ";
  List.iter
    (fun l ->
      Buffer.add_string buf (string_of_int (Lit.to_dimacs l));
      Buffer.add_char buf ' ')
    (Clause.to_list c);
  Buffer.add_string buf "0\n"

let drat_to_string steps =
  let buf = Buffer.create 4096 in
  List.iter (output_step buf) steps;
  Buffer.contents buf

let write_drat oc steps = output_string oc (drat_to_string steps)

let write_drat_file path steps =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_drat oc steps)

let parse_drat text =
  let steps = ref [] in
  let lineno = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         incr lineno;
         let line = String.trim line in
         if line <> "" && line.[0] <> 'c' then begin
           let toks =
             String.split_on_char ' ' line
             |> List.filter (fun t -> t <> "")
           in
           let del, toks =
             match toks with "d" :: rest -> (true, rest) | _ -> (false, toks)
           in
           let ints =
             List.map
               (fun t ->
                 match int_of_string_opt t with
                 | Some v -> v
                 | None ->
                   failwith
                     (Printf.sprintf "DRAT parse error at line %d: %S" !lineno t))
               toks
           in
           match List.rev ints with
           | 0 :: rev_lits ->
             let c =
               Clause.of_list (List.rev_map Lit.of_dimacs rev_lits)
             in
             steps := (if del then Delete c else Add c) :: !steps
           | _ ->
             failwith
               (Printf.sprintf "DRAT parse error at line %d: missing 0" !lineno)
         end);
  List.rev !steps

let parse_drat_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_drat (In_channel.input_all ic))

let lrat_to_string lines =
  let buf = Buffer.create 4096 in
  List.iter
    (fun { id; lits; hints } ->
      Buffer.add_string buf (string_of_int id);
      Buffer.add_char buf ' ';
      List.iter
        (fun l ->
          Buffer.add_string buf (string_of_int (Lit.to_dimacs l));
          Buffer.add_char buf ' ')
        (Clause.to_list lits);
      Buffer.add_string buf "0 ";
      List.iter
        (fun h ->
          Buffer.add_string buf (string_of_int h);
          Buffer.add_char buf ' ')
        hints;
      Buffer.add_string buf "0\n")
    lines;
  Buffer.contents buf

let write_lrat oc lines = output_string oc (lrat_to_string lines)

let write_lrat_file path lines =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_lrat oc lines)

let parse_lrat text =
  let lines = ref [] in
  let lineno = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         incr lineno;
         let line = String.trim line in
         if line <> "" && line.[0] <> 'c' then begin
           let toks =
             String.split_on_char ' ' line
             |> List.filter (fun t -> t <> "")
           in
           match toks with
           | _ :: "d" :: _ -> () (* deletion lines are ignored *)
           | id :: rest -> (
             let fail () =
               failwith
                 (Printf.sprintf "LRAT parse error at line %d" !lineno)
             in
             let id =
               match int_of_string_opt id with Some v -> v | None -> fail ()
             in
             let ints =
               List.map
                 (fun t ->
                   match int_of_string_opt t with
                   | Some v -> v
                   | None -> fail ())
                 rest
             in
             (* <lits> 0 <hints> 0 *)
             let rec split_lits acc = function
               | 0 :: rest -> (List.rev acc, rest)
               | l :: rest -> split_lits (l :: acc) rest
               | [] -> fail ()
             in
             let lits, rest = split_lits [] ints in
             let rec split_hints acc = function
               | [ 0 ] -> List.rev acc
               | h :: rest -> split_hints (h :: acc) rest
               | [] -> fail ()
             in
             let hints = split_hints [] rest in
             lines :=
               {
                 id;
                 lits = Clause.of_list (List.map Lit.of_dimacs lits);
                 hints;
               }
               :: !lines)
           | [] -> ()
         end);
  List.rev !lines

let parse_lrat_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_lrat (In_channel.input_all ic))

(* ------------------------------------------------------------------ *)
(* Convenience                                                         *)
(* ------------------------------------------------------------------ *)

let solve_certified ?stop ?(config = Types.default) formula =
  let config = { config with Types.proof_logging = true } in
  let solver = Cdcl.create ~config formula in
  let outcome = Cdcl.solve ?stop solver in
  (outcome, check formula (Cdcl.proof solver))
