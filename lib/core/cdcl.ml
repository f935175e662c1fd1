(* Conflict-driven clause learning with two-literal watching.  The
   imperative core follows the MiniSat lineage of the GRASP architecture
   described in the paper; comments mark the Decide / Deduce / Diagnose /
   Erase roles of Figure 2. *)

module Lit = Cnf.Lit

type clause = {
  mutable lits : int array; (* lits.(0), lits.(1) are the watched literals *)
  mutable activity : float;
  learnt : bool;
  mutable deleted : bool;
  mutable lbd : int; (* distinct decision levels at learning time *)
  mutable cid : int;
      (* index into the solver's clause table, assigned at [attach];
         watch lists reference clauses by this integer so watcher stores
         never pay the GC write barrier.  [-1] before attachment. *)
}

type plugin = {
  on_assign : Cnf.Lit.t -> unit;
  on_unassign : Cnf.Lit.t -> unit;
  decide : unit -> Cnf.Lit.t option;
  is_complete : unit -> bool;
}

let no_plugin =
  {
    on_assign = (fun _ -> ());
    on_unassign = (fun _ -> ());
    decide = (fun () -> None);
    is_complete = (fun () -> false);
  }

let dummy_clause =
  { lits = [||]; activity = 0.; learnt = false; deleted = true; lbd = 0;
    cid = 0 }

type inprocess_stats = {
  mutable inp_rounds : int;
  mutable inp_subsumed : int;
  mutable inp_vivified : int;
  mutable inp_vivified_lits : int;
}

let mk_inprocess_stats () =
  { inp_rounds = 0; inp_subsumed = 0; inp_vivified = 0; inp_vivified_lits = 0 }

type t = {
  cfg : Types.config;
  stats : Types.stats;
  rng : Rng.t;
  mutable nvars : int;
  mutable ok : bool;
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  mutable watches : Watcher.t array; (* indexed by literal *)
  (* clause table: maps the integer clause references stored in watch
     lists back to clause records; slot 0 is permanently [dummy_clause],
     and deleted clauses have their slot re-pointed at it so the records
     can be collected while tombstone entries still dereference safely *)
  mutable ctab : clause array;
  mutable next_cid : int;
  (* tombstone watcher entries left behind by lazy clause deletion;
     compacted away once they exceed a fraction of all live entries *)
  mutable dead_watchers : int;
  mutable assign : int array;           (* var -> -1 / 0 / 1 *)
  mutable level : int array;
  mutable reason : clause array;
      (* [dummy_clause] marks "no reason" (decision / level 0): an
         implication's antecedent is stored without boxing an option *)
  mutable phase : bool array;
  mutable activity : float array;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable heap : Heap.t;
  trail : int Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  mutable seen : bool array;
  mutable jw_weight : float array;      (* static Jeroslow-Wang literal weights *)
  mutable jw_ready : bool;
  mutable plugin : plugin;
  mutable model : bool array;
  mutable partial : int array option;
  mutable max_learnts : int;
  mutable assumptions : int array;
  mutable proof : Types.proof_step list; (* DRAT steps, newest first *)
  (* absolute per-call thresholds, set at [solve] entry *)
  mutable conflict_budget : int option;
  mutable decision_budget : int option;
  mutable on_learn : (Cnf.Lit.t list -> int -> unit) option;
  mutable on_restart : (unit -> unit) option;
  (* observability: both default to [None]; every emission site guards
     on the option so a solver with nothing attached pays one immediate
     comparison per site, off the propagation inner loop *)
  mutable tracer : Trace.sink option;
  mutable instruments : Metrics.solver_instruments option;
  (* full registry for the non-histogram instrumentation (inprocessing
     counters, "simplify" phase spans); independent of [instruments] so
     portfolio workers can attach their private registries *)
  mutable metrics : Metrics.t option;
  mutable solve_calls : int;
  (* conflict count at the last inprocessing pass *)
  mutable last_inprocess : int;
  inp : inprocess_stats;
}

let config s = s.cfg
let stats s = s.stats
let set_plugin s p = s.plugin <- p
let set_learn_hook s h = s.on_learn <- h
let set_restart_hook s h = s.on_restart <- h
let set_tracer s tr = s.tracer <- tr
let set_instruments s ins = s.instruments <- ins
let set_metrics s m = s.metrics <- m
let inprocess_stats s = s.inp
let nvars s = s.nvars
let decision_level s = Vec.size s.trail_lim

let value_var s v = s.assign.(v)

let value s l =
  let a = s.assign.(Lit.var l) in
  if a < 0 then -1 else a lxor (l land 1)

let ensure_capacity s n =
  let old = Array.length s.assign in
  if n > old then begin
    let cap = max n (old * 2) in
    let grow_arr a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 old;
      b
    in
    s.assign <- grow_arr s.assign (-1);
    s.level <- grow_arr s.level (-1);
    s.reason <- grow_arr s.reason dummy_clause;
    s.phase <- grow_arr s.phase false;
    s.activity <- grow_arr s.activity 0.;
    s.seen <- grow_arr s.seen false;
    let w = Array.init (2 * cap) (fun i ->
        if i < 2 * old then s.watches.(i)
        else Watcher.create ~capacity:4 ())
    in
    s.watches <- w;
    Heap.grow s.heap cap;
    Heap.set_scores s.heap s.activity
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  ensure_capacity s s.nvars;
  Heap.insert s.heap v;
  v

(* --- assignment / trail ------------------------------------------------ *)

let enqueue s l reason =
  (* [l]'s variable is always allocated (< nvars), so the bounds checks
     can go: this runs once per implication, inside propagation *)
  let v = l lsr 1 in
  Array.unsafe_set s.assign v (1 - (l land 1));
  Array.unsafe_set s.level v (decision_level s);
  Array.unsafe_set s.reason v reason;
  Vec.push s.trail l;
  s.plugin.on_assign l

let new_decision_level s = Vec.push s.trail_lim (Vec.size s.trail)

(* Erase(): undo assignments above [lvl]. *)
let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.unsafe_get s.trail i in
      let v = Lit.var l in
      if s.cfg.phase_saving then s.phase.(v) <- s.assign.(v) = 1;
      s.assign.(v) <- -1;
      (* [s.reason.(v)] is left stale: every reader but [locked] only
         consults reasons of assigned variables, and [locked] checks the
         assignment itself — clearing here would cost a pointer store
         (write barrier) per undone assignment *)
      s.plugin.on_unassign l;
      Heap.insert s.heap v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- bound
  end

(* --- clause attachment -------------------------------------------------- *)

let alloc_cid s (c : clause) =
  if c.cid < 0 then begin
    if s.next_cid = Array.length s.ctab then begin
      let t = Array.make (2 * s.next_cid) dummy_clause in
      Array.blit s.ctab 0 t 0 s.next_cid;
      s.ctab <- t
    end;
    s.ctab.(s.next_cid) <- c;
    c.cid <- s.next_cid;
    s.next_cid <- s.next_cid + 1
  end

(* Each watcher entry carries the other watched literal as its blocking
   literal: when the blocker is already true the clause is satisfied and
   propagation skips the clause dereference entirely. *)
let attach s (c : clause) =
  alloc_cid s c;
  Watcher.push s.watches.(c.lits.(0)) c.lits.(1) c.cid;
  Watcher.push s.watches.(c.lits.(1)) c.lits.(0) c.cid

let locked s (c : clause) =
  Array.length c.lits > 0
  && (let v = Lit.var c.lits.(0) in
      s.reason.(v) == c && s.assign.(v) >= 0)

(* O(1) lazy deletion: the clause's two watcher entries become tombstones
   that propagation drops on traversal and [maybe_compact_watches] sweeps
   in bulk.  [delete_clause_silent] skips the proof step — for callers
   that detach a clause only to re-add it (vivification) and emit their
   own add/delete ordering. *)
let delete_clause_silent s (c : clause) =
  c.deleted <- true;
  (* re-point the table slot at the (deleted) dummy: tombstone watcher
     entries still dereference safely, and the record becomes garbage as
     soon as the clause vectors are filtered *)
  s.ctab.(c.cid) <- dummy_clause;
  s.dead_watchers <- s.dead_watchers + 2;
  s.stats.deleted <- s.stats.deleted + 1

let delete_clause s (c : clause) =
  if s.cfg.proof_logging && c.learnt then
    s.proof <-
      Types.Delete (Cnf.Clause.of_list (Array.to_list c.lits)) :: s.proof;
  delete_clause_silent s c

(* Compact every watch list once tombstones exceed a quarter of the live
   entries, so clause-database reduction cannot leave permanently
   traversed garbage. *)
let maybe_compact_watches s =
  let live = 2 * (Vec.size s.clauses + Vec.size s.learnts) in
  if s.dead_watchers > 16 && s.dead_watchers * 4 > live then begin
    let ctab = s.ctab in
    let keep cref = not ctab.(cref).deleted in
    Array.iter (fun w -> Watcher.filter_in_place keep w) s.watches;
    s.dead_watchers <- 0
  end

(* --- activities --------------------------------------------------------- *)

let var_decay = 1. /. 0.95
let cla_decay = 1. /. 0.999

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  Heap.update s.heap v

let bump_clause s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun (d : clause) -> d.activity <- d.activity *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_activities s =
  s.var_inc <- s.var_inc *. var_decay;
  s.cla_inc <- s.cla_inc *. cla_decay

(* --- Deduce(): unit propagation with two-literal watching --------------- *)

(* First non-false literal position at index >= k, or -1.  Top-level so
   the non-flambda compiler emits plain calls instead of allocating a
   closure per clause visit. *)
let rec find_nonfalse assign lits len k =
  if k >= len then -1
  else
    let l = Array.unsafe_get lits k in
    if Array.unsafe_get assign (l lsr 1) <> l land 1 then k
    else find_nonfalse assign lits len (k + 1)

(* The hot loop.  Indices are provably in bounds (watcher traversal is
   bounded by the list size captured before it, literal/variable indices
   by the attach invariants), so accesses go through the unsafe raw
   arrays; [s.assign] is read through one local binding; the stats
   increment is batched per call (trail-pointer delta).  A literal [l] is
   true iff [assign.(l/2) = 1 - (l land 1)] and false iff
   [assign.(l/2) = l land 1] (unassigned is -1, which matches neither). *)
let propagate s =
  let confl = ref None in
  let trail = s.trail in
  let assign = s.assign in
  let watches = s.watches in
  let qhead0 = s.qhead in
  (* loop invariants of the inlined [enqueue]: propagation never opens a
     decision level, swaps the plugin, or reallocates the solver arrays *)
  let level = s.level in
  let reason = s.reason in
  let ctab = s.ctab in
  let dl = decision_level s in
  let on_assign = s.plugin.on_assign in
  let has_plugin = s.plugin != no_plugin in
  while !confl == None && s.qhead < Vec.size trail do
    let p = Vec.unsafe_get trail s.qhead in
    s.qhead <- s.qhead + 1;
    let np = p lxor 1 in
    let ws = Array.unsafe_get watches np in
    let n = Watcher.size ws in
    (* moved watches are pushed onto other lists, never this one (their
       new watch is non-false while [np] is false), so the raw arrays
       cannot be reallocated during the traversal *)
    let bls = Watcher.raw_blockers ws in
    let crs = Watcher.raw_crefs ws in
    let i = ref 0 and j = ref 0 in
    (* both watcher payloads are immediates, so the compaction stores
       below never invoke the GC write barrier; they are still skipped
       while no watcher has been dropped ([j] trails [i] only then) *)
    while !i < n do
      let b = Array.unsafe_get bls !i in
      if Array.unsafe_get assign (b lsr 1) = 1 - (b land 1) then begin
        (* blocker already true: keep the watcher, no clause dereference *)
        if !j < !i then begin
          Array.unsafe_set bls !j b;
          Array.unsafe_set crs !j (Array.unsafe_get crs !i)
        end;
        incr i;
        incr j
      end
      else begin
        let cid = Array.unsafe_get crs !i in
        incr i;
        let c = Array.unsafe_get ctab cid in
        if c.deleted then s.dead_watchers <- s.dead_watchers - 1
        else begin
          let lits = c.lits in
          (* normalise: the falsified watch sits at position 1 *)
          let first =
            let l0 = Array.unsafe_get lits 0 in
            if l0 = np then begin
              let o = Array.unsafe_get lits 1 in
              Array.unsafe_set lits 0 o;
              Array.unsafe_set lits 1 np;
              o
            end
            else l0
          in
          if Array.unsafe_get assign (first lsr 1) = 1 - (first land 1)
          then begin
            (* satisfied by the other watch: it becomes the blocker *)
            Array.unsafe_set bls !j first;
            Array.unsafe_set crs !j cid;
            incr j
          end
          else begin
            let len = Array.length lits in
            let k = find_nonfalse assign lits len 2 in
            if k >= 0 then begin
              (* non-false literal found: move the watch there *)
              let l = Array.unsafe_get lits k in
              Array.unsafe_set lits 1 l;
              Array.unsafe_set lits k np;
              Watcher.push (Array.unsafe_get watches l) first cid
            end
            else begin
              Array.unsafe_set bls !j first;
              Array.unsafe_set crs !j cid;
              incr j;
              if Array.unsafe_get assign (first lsr 1) = first land 1
              then begin
                (* conflicting clause: flush remaining watchers and stop *)
                confl := Some c;
                if !j = !i then begin
                  (* nothing dropped: the tail is already in place *)
                  i := n;
                  j := n
                end
                else
                  while !i < n do
                    Array.unsafe_set bls !j (Array.unsafe_get bls !i);
                    Array.unsafe_set crs !j (Array.unsafe_get crs !i);
                    incr j;
                    incr i
                  done
              end
              else begin
                (* inlined [enqueue] *)
                let v = first lsr 1 in
                Array.unsafe_set assign v (1 - (first land 1));
                Array.unsafe_set level v dl;
                Array.unsafe_set reason v c;
                Vec.push trail first;
                if has_plugin then on_assign first
              end
            end
          end
        end
      end
    done;
    if !j < n then Watcher.shrink ws !j
  done;
  let props = s.qhead - qhead0 in
  s.stats.propagations <- s.stats.propagations + props;
  (match s.tracer with
   | Some tr when props > 0 ->
     Trace.emit tr (Trace.Propagation { props; trail = Vec.size trail })
   | _ -> ());
  !confl

(* --- Diagnose(): 1-UIP conflict analysis -------------------------------- *)

(* Returns the learned literals (UIP first) and the backjump level.  The
   learned clause is an implicate of the formula (clause recording); the
   asserted UIP literal is the conflict-induced necessary assignment. *)
let analyze s confl =
  let learnt = ref [] in
  let to_clear = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (Vec.size s.trail - 1) in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if c.learnt then bump_clause s c;
    (* explicit loop: an [Array.iter] closure over this many captured
       refs would be allocated once per resolution step *)
    let lits = c.lits in
    for k = 0 to Array.length lits - 1 do
      let q = Array.unsafe_get lits k in
      let v = Lit.var q in
      if q <> !p && (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        to_clear := v :: !to_clear;
        bump_var s v;
        if s.level.(v) >= decision_level s then incr path
        else learnt := q :: !learnt
      end
    done;
    (* walk back to the next marked literal on the trail; the 1-UIP
       invariant keeps [idx] within the trail, so the reads are unsafe *)
    while not s.seen.(Lit.var (Vec.unsafe_get s.trail !idx)) do
      decr idx
    done;
    let q = Vec.unsafe_get s.trail !idx in
    decr idx;
    s.seen.(Lit.var q) <- false;
    decr path;
    if !path = 0 then begin
      p := q;
      continue := false
    end
    else begin
      p := q;
      confl := s.reason.(Lit.var q)
    end
  done;
  let uip = Lit.negate !p in
  (* conflict-clause minimization: drop literals implied by the rest *)
  let kept =
    if not s.cfg.minimize_learned then !learnt
    else begin
      (* [seen] currently true exactly for the vars in [learnt] *)
      List.iter (fun q -> s.seen.(Lit.var q) <- true) !learnt;
      let redundant q =
        let c = s.reason.(Lit.var q) in
        (* decisions ([dummy_clause]) are never redundant *)
        c != dummy_clause
        && Array.for_all
             (fun l ->
                Lit.var l = Lit.var q
                || s.level.(Lit.var l) = 0
                || s.seen.(Lit.var l))
             c.lits
      in
      let kept = List.filter (fun q -> not (redundant q)) !learnt in
      List.iter (fun q -> s.seen.(Lit.var q) <- false) !learnt;
      kept
    end
  in
  List.iter (fun v -> s.seen.(v) <- false) !to_clear;
  (* backjump level = highest level among the non-UIP literals *)
  let bj = List.fold_left (fun acc q -> max acc (s.level.(Lit.var q))) 0 kept in
  (* order: UIP first, then a literal of the backjump level (watch sanity) *)
  let at_bj, rest = List.partition (fun q -> s.level.(Lit.var q) = bj) kept in
  (uip :: (at_bj @ rest), bj)

(* Failed-assumption analysis: which assumptions force [p] false. *)
let analyze_final s p =
  let core = ref [ p ] in
  let v0 = Lit.var p in
  s.seen.(v0) <- true;
  for i = Vec.size s.trail - 1 downto 0 do
    let q = Vec.get s.trail i in
    let v = Lit.var q in
    if s.seen.(v) then begin
      (let c = s.reason.(v) in
       if c == dummy_clause then begin
         if s.level.(v) > 0 && v <> v0 then core := q :: !core
       end
       else
         Array.iter
           (fun l ->
              if Lit.var l <> v && s.level.(Lit.var l) > 0 then
                s.seen.(Lit.var l) <- true)
           c.lits);
      s.seen.(v) <- false
    end
  done;
  s.seen.(v0) <- false;
  !core

(* --- clause recording ---------------------------------------------------- *)

let fire_learn s lits lbd =
  (match s.on_learn with None -> () | Some h -> h lits lbd);
  (match s.instruments with
   | Some ins -> Metrics.observe_int ins.Metrics.lbd lbd
   | None -> ());
  match s.tracer with
  | Some tr -> Trace.emit tr (Trace.Learn { lbd; size = List.length lits })
  | None -> ()

let record_learnt s lits =
  s.stats.learned <- s.stats.learned + 1;
  s.stats.learned_literals <- s.stats.learned_literals + List.length lits;
  if s.cfg.proof_logging then
    s.proof <- Types.Add (Cnf.Clause.of_list lits) :: s.proof;
  match lits with
  | [] -> s.ok <- false; None
  | [ l ] ->
    fire_learn s lits 1;
    enqueue s l dummy_clause;
    None
  | l :: rest ->
    (* literal-block distance: distinct levels of the tail literals,
       plus the level the UIP is about to be asserted at *)
    let lbd =
      1
      + List.length
          (List.sort_uniq Int.compare
             (List.map (fun q -> s.level.(Lit.var q)) rest))
    in
    fire_learn s lits lbd;
    let c =
      { lits = Array.of_list lits; activity = 0.; learnt = true;
        deleted = false; lbd; cid = -1 }
    in
    attach s c;
    Vec.push s.learnts c;
    bump_clause s c;
    enqueue s l c;
    Some c

(* --- clause deletion policies ------------------------------------------- *)

let live_learnts s =
  let n = ref 0 in
  Vec.iter (fun (c : clause) -> if not c.deleted then incr n) s.learnts;
  !n

let trace_reduce s before =
  match s.tracer with
  | Some tr ->
    let after = live_learnts s in
    if after <> before then
      Trace.emit tr (Trace.Reduce_db { before; after })
  | None -> ()

let reduce_activity_half s =
  let before = live_learnts s in
  let arr =
    Vec.to_list s.learnts
    |> List.filter (fun c -> not c.deleted)
    |> List.sort (fun (a : clause) (b : clause) ->
           Float.compare a.activity b.activity)
    |> Array.of_list
  in
  let target = Array.length arr / 2 in
  let removed = ref 0 in
  Array.iter
    (fun c ->
       if !removed < target && Array.length c.lits > 2 && not (locked s c) then begin
         delete_clause s c;
         incr removed
       end)
    arr;
  Vec.filter_in_place (fun c -> not c.deleted) s.learnts;
  maybe_compact_watches s;
  trace_reduce s before

let reduce_by_predicate s pred =
  let before = live_learnts s in
  Vec.iter
    (fun c -> if (not c.deleted) && pred c && not (locked s c) then delete_clause s c)
    s.learnts;
  Vec.filter_in_place (fun c -> not c.deleted) s.learnts;
  maybe_compact_watches s;
  trace_reduce s before

let unassigned_count s (c : clause) =
  Array.fold_left (fun acc l -> if value s l < 0 then acc + 1 else acc) 0 c.lits

let maybe_reduce s =
  match s.cfg.deletion with
  | Types.No_deletion -> ()
  | Types.Activity_halving ->
    if Vec.size s.learnts > s.max_learnts then begin
      reduce_activity_half s;
      s.max_learnts <- s.max_learnts * 12 / 10
    end
  | Types.Size_bounded bound ->
    if s.stats.conflicts mod 1000 = 0 then
      reduce_by_predicate s (fun c -> Array.length c.lits > bound)
  | Types.Relevance (bound, r) ->
    if s.stats.conflicts mod 1000 = 0 then
      reduce_by_predicate s (fun c ->
          Array.length c.lits > bound && unassigned_count s c > r)
  | Types.Lbd_bounded bound ->
    if s.stats.conflicts mod 1000 = 0 then
      reduce_by_predicate s (fun c -> c.lbd > bound && Array.length c.lits > 2)

(* --- Decide(): branching heuristics -------------------------------------- *)

let pick_phase s v = if s.phase.(v) then Lit.pos v else Lit.neg_of_var v

let decide_vsids s =
  let rec go () =
    if Heap.is_empty s.heap then None
    else
      let v = Heap.pop_max s.heap in
      if s.assign.(v) < 0 then Some (pick_phase s v) else go ()
  in
  go ()

let decide_fixed s =
  let rec go v =
    if v >= s.nvars then None
    else if s.assign.(v) < 0 then Some (pick_phase s v)
    else go (v + 1)
  in
  go 0

let decide_random s =
  let free = ref [] and n = ref 0 in
  for v = s.nvars - 1 downto 0 do
    if s.assign.(v) < 0 then begin
      free := v :: !free;
      incr n
    end
  done;
  if !n = 0 then None
  else
    let v = List.nth !free (Rng.int s.rng !n) in
    Some (Lit.of_var v (Rng.bool s.rng))

(* Literal-count heuristics scan the clause database; used by the
   GRASP-flavoured configurations on small instances. *)
let clause_satisfied s (c : clause) = Array.exists (fun l -> value s l = 1) c.lits

let decide_by_counts s ~restrict_to_min =
  let best = ref (-1) and best_count = ref (-1) in
  let counts = Hashtbl.create 64 in
  let min_size = ref max_int in
  let consider c =
    if (not c.deleted) && not (clause_satisfied s c) then begin
      let free = unassigned_count s c in
      if free > 0 && free < !min_size then min_size := free
    end
  in
  if restrict_to_min then begin
    Vec.iter consider s.clauses;
    Vec.iter consider s.learnts
  end;
  let count c =
    if (not c.deleted) && not (clause_satisfied s c) then begin
      let free = unassigned_count s c in
      if free > 0 && ((not restrict_to_min) || free = !min_size) then
        Array.iter
          (fun l ->
             if value s l < 0 then begin
               let cur = Option.value ~default:0 (Hashtbl.find_opt counts l) in
               Hashtbl.replace counts l (cur + 1)
             end)
          c.lits
    end
  in
  Vec.iter count s.clauses;
  Vec.iter count s.learnts;
  Hashtbl.iter
    (fun l c ->
       if c > !best_count || (c = !best_count && l < !best) then begin
         best := l;
         best_count := c
       end)
    counts;
  if !best < 0 then decide_fixed s else Some !best

let compute_jw s =
  let w = Array.make (2 * max 1 s.nvars) 0. in
  let add c =
    if not c.deleted then begin
      let inc = 2. ** float_of_int (-Array.length c.lits) in
      Array.iter (fun l -> w.(l) <- w.(l) +. inc) c.lits
    end
  in
  Vec.iter add s.clauses;
  s.jw_weight <- w;
  s.jw_ready <- true

let decide_jw s =
  if not s.jw_ready then compute_jw s;
  let best = ref (-1) and best_w = ref neg_infinity in
  for l = 0 to (2 * s.nvars) - 1 do
    if value s l < 0 && l < Array.length s.jw_weight && s.jw_weight.(l) > !best_w
    then begin
      best := l;
      best_w := s.jw_weight.(l)
    end
  done;
  if !best < 0 then None else Some !best

let default_decide s =
  if s.cfg.random_decision_freq > 0.
     && Rng.float s.rng < s.cfg.random_decision_freq
  then
    match decide_random s with
    | Some l -> Some l
    | None -> None
  else
    match s.cfg.heuristic with
    | Types.Vsids -> decide_vsids s
    | Types.Fixed_order -> decide_fixed s
    | Types.Random_order -> decide_random s
    | Types.Dlis -> decide_by_counts s ~restrict_to_min:false
    | Types.Moms -> decide_by_counts s ~restrict_to_min:true
    | Types.Jeroslow_wang -> decide_jw s

(* --- restarts ------------------------------------------------------------- *)

(* MiniSat's integer Luby sequence: 1 1 2 1 1 2 4 ... *)
let luby x =
  let size = ref 1 and seq = ref 0 and x = ref x in
  while !size < !x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let restart_limit s k =
  match s.cfg.restarts with
  | Types.No_restarts -> max_int
  | Types.Luby base -> base * luby k
  | Types.Geometric (first, factor) ->
    int_of_float (float_of_int first *. (factor ** float_of_int k))

(* --- top-level clause addition ------------------------------------------- *)

let add_clause s lits =
  assert (decision_level s = 0);
  let c = Cnf.Clause.of_list lits in
  if s.ok && not (Cnf.Clause.is_tautology c) then begin
    List.iter (fun l -> ignore (Lit.var l);
                while Lit.var l >= s.nvars do ignore (new_var s) done)
      (Cnf.Clause.to_list c);
    (* simplify against the level-0 assignment *)
    let lits = Cnf.Clause.to_list c in
    if not (List.exists (fun l -> value s l = 1) lits) then begin
      let lits = List.filter (fun l -> value s l <> 0) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
        enqueue s l dummy_clause;
        (match propagate s with Some _ -> s.ok <- false | None -> ())
      | l0 :: l1 :: _ ->
        let arr = Array.of_list lits in
        ignore l0;
        ignore l1;
        let cl =
          { lits = arr; activity = 0.; learnt = false; deleted = false;
            lbd = 0; cid = -1 }
        in
        attach s cl;
        Vec.push s.clauses cl;
        s.jw_ready <- false
    end
  end

(* Accept a foreign clause (e.g. learned by another solver on the same
   formula) at decision level 0.  Mirrors [add_clause]'s simplification
   and invariants, but records the clause as a learnt one carrying its
   producer's LBD so the deletion policies treat it uniformly.  Sound
   whenever the clause is an implicate of the formula the solver holds. *)
let import_clause ?lbd s lits =
  assert (decision_level s = 0);
  let c = Cnf.Clause.of_list lits in
  if s.ok && not (Cnf.Clause.is_tautology c) then begin
    List.iter
      (fun l -> while Lit.var l >= s.nvars do ignore (new_var s) done)
      (Cnf.Clause.to_list c);
    let lits = Cnf.Clause.to_list c in
    if not (List.exists (fun l -> value s l = 1) lits) then begin
      let lits = List.filter (fun l -> value s l <> 0) lits in
      s.stats.imported <- s.stats.imported + 1;
      (match s.tracer with
       | Some tr when lits <> [] ->
         let size = List.length lits in
         let lbd = match lbd with Some b -> min b size | None -> size in
         Trace.emit tr (Trace.Import { lbd; size })
       | _ -> ());
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
        enqueue s l dummy_clause;
        (match propagate s with Some _ -> s.ok <- false | None -> ())
      | _ ->
        let lbd = match lbd with Some b -> b | None -> List.length lits in
        let cl =
          { lits = Array.of_list lits; activity = 0.; learnt = true;
            deleted = false; lbd; cid = -1 }
        in
        attach s cl;
        Vec.push s.learnts cl
    end
  end

(* --- inprocessing: simplify the learnt database during search ------------ *)

(* Delete learnt clauses subsumed by a smaller clause anywhere in the
   database (original or learnt).  Original clauses are never touched,
   so the proof's premise set is untouched too.  A clause [d] subsumes
   [c] iff every literal of [d] occurs in [c]; candidates are found by
   scanning the occurrence lists of all of [c]'s literals (every
   subsumer shares each of its own literals with [c]), bounded by a
   per-clause scan budget so pathological occurrence lists cannot make
   the pass quadratic. *)
let inprocess_subsume s =
  let nlits = 2 * max 1 s.nvars in
  let occ = Array.make nlits [] in
  let index (c : clause) =
    if not c.deleted then
      Array.iter (fun l -> occ.(l) <- c :: occ.(l)) c.lits
  in
  Vec.iter index s.clauses;
  Vec.iter index s.learnts;
  let seen = Array.make nlits false in
  let removed = ref 0 in
  let subsumed (c : clause) =
    Array.iter (fun l -> seen.(l) <- true) c.lits;
    let hit = ref false in
    let budget = ref 2000 in
    Array.iter
      (fun l ->
         if not !hit then
           List.iter
             (fun (d : clause) ->
                decr budget;
                if (not !hit) && !budget >= 0 && d != c && (not d.deleted)
                   && Array.length d.lits <= Array.length c.lits
                   && Array.for_all (fun m -> seen.(m)) d.lits
                then hit := true)
             occ.(l))
      c.lits;
    Array.iter (fun l -> seen.(l) <- false) c.lits;
    !hit
  in
  Vec.iter
    (fun (c : clause) ->
       if (not c.deleted) && (not (locked s c)) && Array.length c.lits > 1
          && subsumed c
       then begin
         delete_clause s c;
         incr removed
       end)
    s.learnts;
  if !removed > 0 then begin
    Vec.filter_in_place (fun c -> not c.deleted) s.learnts;
    maybe_compact_watches s
  end;
  !removed

(* Vivification core: assert the negation of each literal in turn at a
   pseudo decision level.  A literal already true is kept and closes the
   clause (the prefix implies it); a literal already false is dropped
   (the prefix implies its negation — self-subsumption); a propagation
   conflict closes the clause at the current prefix.  Returns the kept
   literals; the caller must have detached the clause first so it cannot
   justify itself. *)
let vivify_lits s lits0 =
  new_decision_level s;
  let kept = ref [] in
  let stop = ref false in
  let i = ref 0 in
  let n = Array.length lits0 in
  while (not !stop) && !i < n do
    let l = lits0.(!i) in
    incr i;
    match value s l with
    | 1 ->
      kept := l :: !kept;
      stop := true
    | 0 -> ()
    | _ ->
      kept := l :: !kept;
      enqueue s (Lit.negate l) dummy_clause;
      (match propagate s with Some _ -> stop := true | None -> ())
  done;
  cancel_until s 0;
  List.rev !kept

(* One budgeted inprocessing pass, run at a level-0 boundary of the
   search: learnt-clause subsumption, then vivification of the lowest-LBD
   learnt clauses.  Every shortened clause is reverse-unit-propagation
   derivable from the database (the original clause is a recorded proof
   step or an input, and each drop is justified by propagation), so with
   [proof_logging] the shortened clause is appended to the proof and
   certificates stay checkable. *)
let inprocess s =
  s.inp.inp_rounds <- s.inp.inp_rounds + 1;
  (match s.tracer with
   | Some tr -> Trace.emit tr (Trace.Phase_begin "simplify")
   | None -> ());
  (match s.metrics with
   | Some m -> Metrics.phase_begin m "simplify"
   | None -> ());
  let sub0 = s.inp.inp_subsumed
  and viv0 = s.inp.inp_vivified
  and lit0 = s.inp.inp_vivified_lits in
  (* settle any pending propagation: the pass needs the level-0 closure *)
  (match propagate s with Some _ -> s.ok <- false | None -> ());
  if s.ok then begin
    s.inp.inp_subsumed <- s.inp.inp_subsumed + inprocess_subsume s;
    let cands =
      Vec.to_list s.learnts
      |> List.filter (fun (c : clause) ->
             (not c.deleted) && (not (locked s c)) && Array.length c.lits > 1)
      |> List.sort (fun (a : clause) (b : clause) ->
             match Int.compare a.lbd b.lbd with
             | 0 -> Int.compare (Array.length a.lits) (Array.length b.lits)
             | k -> k)
    in
    let budget = ref 100 in
    let props0 = s.stats.propagations in
    List.iter
      (fun (c : clause) ->
         if s.ok && !budget > 0 && (not c.deleted) && (not (locked s c))
            && s.stats.propagations - props0 < 200_000
         then begin
           decr budget;
           let lits0 = Array.copy c.lits in
           let activity = c.activity and lbd = c.lbd in
           delete_clause_silent s c;
           let lits = vivify_lits s lits0 in
           (* back at level 0: drop root-false literals, discard the
              clause entirely if it is root-satisfied *)
           if List.exists (fun l -> value s l = 1) lits then begin
             if s.cfg.proof_logging then
               s.proof <-
                 Types.Delete (Cnf.Clause.of_list (Array.to_list lits0))
                 :: s.proof
           end
           else begin
             let lits = List.filter (fun l -> value s l <> 0) lits in
             let n' = List.length lits in
             if n' < Array.length lits0 then begin
               s.inp.inp_vivified <- s.inp.inp_vivified + 1;
               s.inp.inp_vivified_lits <-
                 s.inp.inp_vivified_lits + (Array.length lits0 - n');
               if s.cfg.proof_logging then begin
                 (* the shortened clause is RUP while the original is
                    still in the proof's active set: add first, then
                    delete the original *)
                 s.proof <-
                   Types.Add (Cnf.Clause.of_list lits) :: s.proof;
                 s.proof <-
                   Types.Delete (Cnf.Clause.of_list (Array.to_list lits0))
                   :: s.proof
               end
             end;
             match lits with
             | [] -> s.ok <- false
             | [ l ] ->
               enqueue s l dummy_clause;
               (match propagate s with Some _ -> s.ok <- false | None -> ())
             | _ ->
               let cl =
                 { lits = Array.of_list lits; activity; learnt = true;
                   deleted = false; lbd = min lbd (List.length lits);
                   cid = -1 }
               in
               attach s cl;
               Vec.push s.learnts cl
           end
         end)
      cands;
    Vec.filter_in_place (fun c -> not c.deleted) s.learnts;
    maybe_compact_watches s
  end;
  s.last_inprocess <- s.stats.conflicts;
  (match s.metrics with
   | Some m ->
     Metrics.incr (Metrics.counter m "inprocess/rounds");
     Metrics.incr
       ~by:(s.inp.inp_subsumed - sub0)
       (Metrics.counter m "inprocess/subsumed");
     Metrics.incr
       ~by:(s.inp.inp_vivified - viv0)
       (Metrics.counter m "inprocess/vivified");
     Metrics.incr
       ~by:(s.inp.inp_vivified_lits - lit0)
       (Metrics.counter m "inprocess/vivified_literals");
     Metrics.phase_end m "simplify"
   | None -> ());
  match s.tracer with
  | Some tr -> Trace.emit tr (Trace.Phase_end "simplify")
  | None -> ()

let maybe_inprocess s =
  if s.ok && s.cfg.inprocessing && decision_level s = 0
     && s.stats.conflicts - s.last_inprocess >= s.cfg.inprocess_interval
  then inprocess s

(* Seed activities and phases from structure-derived guidance.  Legal
   any time the solver is at decision level 0 between solves: seeded
   activities are scaled to the current activity ceiling so they rank
   first among untouched variables yet remain overtakable by
   conflict-driven bumps, and seeded phases simply overwrite the saved
   polarity.  Out-of-range variables are ignored (sessions may receive
   guidance computed against a larger node table). *)
let apply_guidance s (g : Types.guidance) =
  let ceiling = ref s.var_inc in
  for v = 0 to s.nvars - 1 do
    if s.activity.(v) > !ceiling then ceiling := s.activity.(v)
  done;
  let ceiling = !ceiling in
  List.iter
    (fun (v, a) ->
       if v >= 0 && v < s.nvars && a > 0. then begin
         let a = a *. ceiling in
         if a > s.activity.(v) then begin
           s.activity.(v) <- a;
           Heap.update s.heap v
         end
       end)
    g.Types.seed_activity;
  List.iter
    (fun (v, ph) -> if v >= 0 && v < s.nvars then s.phase.(v) <- ph)
    g.Types.seed_phase

let create ?(config = Types.default) formula =
  let n = Cnf.Formula.nvars formula in
  let cap = max n 1 in
  (* the heap reads scores straight out of this array; [ensure_capacity]
     repoints it with [Heap.set_scores] whenever it reallocates *)
  let activity = Array.make cap 0. in
  let s =
    {
      cfg = config;
      stats = Types.mk_stats ();
      rng = Rng.create config.Types.random_seed;
      nvars = 0;
      ok = true;
      clauses = Vec.create ~dummy:dummy_clause ();
      learnts = Vec.create ~dummy:dummy_clause ();
      watches =
        Array.init (2 * cap) (fun _ -> Watcher.create ~capacity:4 ());
      ctab = Array.make 16 dummy_clause;
      next_cid = 1;
      dead_watchers = 0;
      assign = Array.make cap (-1);
      level = Array.make cap (-1);
      reason = Array.make cap dummy_clause;
      phase = Array.make cap false;
      activity;
      var_inc = 1.;
      cla_inc = 1.;
      heap = Heap.create ~scores:activity cap;
      trail = Vec.create ~dummy:0 ();
      trail_lim = Vec.create ~dummy:0 ();
      qhead = 0;
      seen = Array.make cap false;
      jw_weight = [||];
      jw_ready = false;
      plugin = no_plugin;
      model = [||];
      partial = None;
      max_learnts = 100;
      assumptions = [||];
      proof = [];
      conflict_budget = None;
      decision_budget = None;
      on_learn = None;
      on_restart = None;
      tracer = None;
      instruments = None;
      metrics = None;
      solve_calls = 0;
      last_inprocess = 0;
      inp = mk_inprocess_stats ();
    }
  in
  for _ = 1 to n do
    ignore (new_var s)
  done;
  Cnf.Formula.iter_clauses formula (fun c -> add_clause s (Cnf.Clause.to_list c));
  s.max_learnts <- max 100 (Vec.size s.clauses / 3);
  Option.iter (apply_guidance s) config.Types.guide;
  s

(* --- search --------------------------------------------------------------- *)

type step = Continue | Done of Types.outcome

let extract_model s =
  let m = Array.make s.nvars false in
  for v = 0 to s.nvars - 1 do
    m.(v) <- (if s.assign.(v) >= 0 then s.assign.(v) = 1 else s.phase.(v))
  done;
  s.model <- m;
  s.partial <- Some (Array.sub s.assign 0 s.nvars);
  Types.Sat m

let handle_conflict s confl =
  s.stats.conflicts <- s.stats.conflicts + 1;
  (match s.tracer with
   | Some tr ->
     Trace.emit tr
       (Trace.Conflict { level = decision_level s; trail = Vec.size s.trail })
   | None -> ());
  (match s.instruments with
   | Some ins -> Metrics.observe_int ins.Metrics.trail (Vec.size s.trail)
   | None -> ());
  if decision_level s = 0 then begin
    s.ok <- false;
    Done Types.Unsat
  end
  else begin
    let lits, bj = analyze s confl in
    let target =
      (* chronological mode still sends unit learned clauses to the root:
         a reasonless literal inside a level would corrupt later conflict
         analysis *)
      match lits with
      | [ _ ] -> bj
      | _ ->
        if s.cfg.chronological then max bj (decision_level s - 1) else bj
    in
    if target < decision_level s - 1 then begin
      s.stats.nonchrono_backjumps <- s.stats.nonchrono_backjumps + 1;
      s.stats.skipped_levels <-
        s.stats.skipped_levels + (decision_level s - 1 - target)
    end;
    (match s.instruments with
     | Some ins ->
       Metrics.observe_int ins.Metrics.backjump (decision_level s - target)
     | None -> ());
    cancel_until s target;
    ignore (record_learnt s lits);
    decay_activities s;
    if not s.ok then Done Types.Unsat else Continue
  end

let budget_exceeded s =
  let hit limit counter =
    match limit with Some m when counter >= m -> true | Some _ | None -> false
  in
  hit s.cfg.max_conflicts s.stats.conflicts
  || hit s.cfg.max_decisions s.stats.decisions
  || hit s.conflict_budget s.stats.conflicts
  || hit s.decision_budget s.stats.decisions

let decide_step s =
  (* assumption literals occupy the lowest decision levels *)
  if decision_level s < Array.length s.assumptions then begin
    let p = s.assumptions.(decision_level s) in
    match value s p with
    | 1 ->
      new_decision_level s;
      Continue
    | 0 -> Done (Types.Unsat_assuming (analyze_final s p))
    | _ ->
      new_decision_level s;
      enqueue s p dummy_clause;
      Continue
  end
  else if s.plugin.is_complete () then Done (extract_model s)
  else begin
    let next =
      match s.plugin.decide () with
      | Some l -> Some l
      | None -> default_decide s
    in
    match next with
    | None -> Done (extract_model s)
    | Some l ->
      assert (value s l < 0);
      s.stats.decisions <- s.stats.decisions + 1;
      new_decision_level s;
      s.stats.max_level <- max s.stats.max_level (decision_level s);
      (match s.tracer with
       | Some tr ->
         Trace.emit tr (Trace.Decision { level = decision_level s; lit = l })
       | None -> ());
      enqueue s l dummy_clause;
      Continue
  end

let solve_loop s stop assumptions =
  (* level-0 boundary hook (clause import, etc.) before the search starts *)
  (match s.on_restart with Some h when s.ok -> h () | _ -> ());
  maybe_inprocess s;
  if not s.ok then Types.Unsat
  else begin
    (* assumptions may mention variables no clause ever did *)
    List.iter
      (fun l ->
         while Lit.var l >= s.nvars do
           ignore (new_var s)
         done)
      assumptions;
    s.assumptions <- Array.of_list assumptions;
    s.partial <- None;
    let restart_num = ref 0 in
    let conflicts_here = ref 0 in
    let limit = ref (restart_limit s 0) in
    let result = ref None in
    while !result = None do
      match Stop.reason stop with
      | Some why ->
        s.stats.interrupts <- s.stats.interrupts + 1;
        result := Some (Types.Unknown why)
      | None ->
        match propagate s with
        | Some confl -> begin
            incr conflicts_here;
            match handle_conflict s confl with
            | Done r -> result := Some r
            | Continue ->
              maybe_reduce s;
              if budget_exceeded s then result := Some (Types.Unknown "budget")
              else if !conflicts_here >= !limit then begin
                (* randomized restart (Sec. 6) *)
                incr restart_num;
                s.stats.restarts_done <- s.stats.restarts_done + 1;
                (match s.tracer with
                 | Some tr ->
                   Trace.emit tr (Trace.Restart { number = !restart_num })
                 | None -> ());
                conflicts_here := 0;
                limit := restart_limit s !restart_num;
                cancel_until s 0;
                (match s.on_restart with
                 | Some h when s.ok -> h ()
                 | _ -> ());
                maybe_inprocess s;
                if not s.ok then result := Some Types.Unsat
              end
          end
        | None -> begin
            if budget_exceeded s then result := Some (Types.Unknown "budget")
            else
              match decide_step s with
              | Done r -> result := Some r
              | Continue -> ()
          end
    done;
    cancel_until s 0;
    s.assumptions <- [||];
    Option.get !result
  end

let solve ?(stop = Stop.none) ?(assumptions = []) ?max_conflicts
    ?max_decisions s =
  (* per-call budgets are relative to this call's starting counters, so a
     budgeted [Unknown] never poisons later queries on the same solver *)
  s.conflict_budget <-
    Option.map (fun m -> s.stats.conflicts + m) max_conflicts;
  s.decision_budget <-
    Option.map (fun m -> s.stats.decisions + m) max_decisions;
  s.solve_calls <- s.solve_calls + 1;
  let query = s.solve_calls in
  (match s.tracer with
   | Some tr -> Trace.emit tr (Trace.Solve_begin { query })
   | None -> ());
  let outcome = solve_loop s stop assumptions in
  (match s.tracer with
   | Some tr ->
     Trace.emit tr
       (Trace.Solve_end { query; outcome = Trace.outcome_label outcome })
   | None -> ());
  outcome

(* External retention policy, e.g. between incremental queries.  Locked
   clauses (currently a reason) are never removed. *)
let prune_learnts s ~keep =
  reduce_by_predicate s (fun c ->
      not (keep ~lbd:c.lbd ~size:(Array.length c.lits) ~lits:c.lits))

let learned_clauses s =
  Vec.to_list s.learnts
  |> List.filter (fun c -> not c.deleted)
  |> List.map (fun c -> Cnf.Clause.of_list (Array.to_list c.lits))

let last_partial_assignment s = s.partial
let proof s = List.rev s.proof

(* --- debug-only invariant checking --------------------------------------- *)

let check_watches s =
  let err = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt
  in
  (* pass 1: every watcher entry is either a tombstone (deleted clause,
     counted against [dead_watchers]) or watches this very literal, with a
     blocker drawn from the clause's literals *)
  let tombstones = ref 0 in
  Array.iteri
    (fun l ws ->
       Watcher.iter
         (fun b cref ->
            if cref <= 0 || cref >= s.next_cid then
              fail "watch list %d holds out-of-range clause ref %d" l cref
            else
              let c = s.ctab.(cref) in
              if c.deleted then incr tombstones
              else begin
                if Array.length c.lits < 2 then
                  fail "watch list %d holds a clause of length %d" l
                    (Array.length c.lits);
                if Array.length c.lits >= 2
                   && c.lits.(0) <> l && c.lits.(1) <> l
                then
                  fail
                    "watch list %d holds a clause watched on %d and %d" l
                    c.lits.(0) c.lits.(1);
                if not (Array.exists (fun q -> q = b) c.lits) then
                  fail "blocker %d is not a literal of its clause" b
              end)
         ws)
    s.watches;
  if !tombstones <> s.dead_watchers then
    fail "dead-watcher count is %d but %d tombstone entries exist"
      s.dead_watchers !tombstones;
  (* pass 2: every undeleted clause is watched on exactly its first two
     literals, once in each list *)
  let check_clause (c : clause) =
    if (not c.deleted) && Array.length c.lits >= 2 then begin
      if c.cid <= 0 || c.cid >= s.next_cid || s.ctab.(c.cid) != c then
        fail "clause table slot %d does not point back at its clause" c.cid;
      let count l =
        let n = ref 0 in
        Watcher.iter (fun _ d -> if d = c.cid then incr n) s.watches.(l);
        !n
      in
      let n0 = count c.lits.(0) and n1 = count c.lits.(1) in
      if n0 <> 1 || n1 <> 1 then
        fail "clause watched %d/%d times on its first two literals" n0 n1
    end
  in
  Vec.iter check_clause s.clauses;
  Vec.iter check_clause s.learnts;
  match !err with None -> Ok () | Some m -> Error m

(* --- lookahead probing ----------------------------------------------------

   The cube generator (Sat.Cube) drives the watcher-based propagator
   directly: open a scratch decision level, enqueue one literal,
   propagate to fixpoint, measure what happened, undo.  Nothing here
   learns clauses or touches the heuristic state, so a probe is exactly
   one propagation pass — the march lookahead cost model. *)

type probe = Probe_conflict | Probe_ok of int * int

let trail_size s = Vec.size s.trail
let trail_get s i = Vec.get s.trail i
let consistent s = s.ok

let propagate_root s =
  if decision_level s <> 0 then
    invalid_arg "Cdcl.propagate_root: solver is mid-search";
  if s.ok then
    (match propagate s with Some _ -> s.ok <- false | None -> ());
  s.ok

let probe_push s l =
  if not s.ok then invalid_arg "Cdcl.probe_push: solver is inconsistent";
  let from_ = Vec.size s.trail in
  new_decision_level s;
  match value s l with
  | 1 -> Probe_ok (from_, from_)
  | 0 ->
    cancel_until s (decision_level s - 1);
    Probe_conflict
  | _ ->
    enqueue s l dummy_clause;
    (match propagate s with
     | Some _ ->
       cancel_until s (decision_level s - 1);
       Probe_conflict
     | None -> Probe_ok (from_, Vec.size s.trail))

let probe_pop s =
  if decision_level s > 0 then cancel_until s (decision_level s - 1)

let probe_assert s l =
  if not s.ok then false
  else
    match value s l with
    | 1 -> true
    | 0 ->
      if decision_level s = 0 then s.ok <- false;
      false
    | _ -> (
        enqueue s l dummy_clause;
        match propagate s with
        | Some _ ->
          if decision_level s = 0 then s.ok <- false;
          false
        | None -> true)

let var_activity s v =
  if v < 0 || v >= s.nvars then 0. else s.activity.(v)
