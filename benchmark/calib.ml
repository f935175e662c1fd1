(* How fast the host runs right now, from a fixed reference loop.

   A shared host changes speed by a third and more, for seconds to
   minutes at a time, with no steal time showing.  The runner times this
   loop between passes and reports times in reference seconds: measured
   seconds times [reference / loop time], the time the work would take
   on a host where the loop takes [reference] seconds.  The measured
   seconds stay in the context line.

   The loop is unit propagation over a fixed random 3-CNF in flat int
   arrays (under 1 MB): the indirect loads and unpredictable branches a
   CDCL solver spends its time on, so a slow phase of the host slows the
   loop about as much as the solver.  It belongs to the benchmark and
   calls nothing in the repository, so a change to the program cannot
   move it, and it does not allocate, so GC settings cannot either. *)

(* About the loop's time on a 2-core 2.0 GHz Xeon (Sapphire Rapids) KVM
   guest; the value only sets the scale of the reported times. *)
let reference = 0.040

let nvars = 4096
let nclauses = 17_000 (* ratio 4.15: a random decision sequence propagates far *)
let rounds = 150

type db = {
  lits : int array;  (** literal [2v + sign], three per clause *)
  occ_start : int array;  (** clauses of literal [l] are [occ.(occ_start.(l)) ..] *)
  occ : int array;
  value : int array;  (** per literal: 1 true, -1 false, 0 unassigned *)
  trail : int array;
}

let db =
  lazy
    (let st = Random.State.make [| 20001 |] in
     let lits =
       Array.init (3 * nclauses) (fun _ ->
           (2 * Random.State.int st nvars) + Random.State.int st 2)
     in
     let occ_start = Array.make ((2 * nvars) + 1) 0 in
     Array.iter (fun l -> occ_start.(l + 1) <- occ_start.(l + 1) + 1) lits;
     for l = 1 to 2 * nvars do
       occ_start.(l) <- occ_start.(l) + occ_start.(l - 1)
     done;
     let fill = Array.copy occ_start and occ = Array.make (3 * nclauses) 0 in
     Array.iteri
       (fun i l ->
         occ.(fill.(l)) <- i / 3;
         fill.(l) <- fill.(l) + 1)
       lits;
     { lits; occ_start; occ; value = Array.make (2 * nvars) 0;
       trail = Array.make nvars 0 })

(* Decide pseudo-random literals (xorshift from [x]) and propagate until
   the first conflict; then undo.  Returns the next generator state. *)
let descend d x =
  let x = ref x and n = ref 0 and head = ref 0 and conflict = ref false in
  let assign l =
    d.value.(l) <- 1;
    d.value.(l lxor 1) <- -1;
    d.trail.(!n) <- l;
    incr n
  in
  while (not !conflict) && !n < nvars do
    if !head = !n then begin
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      let l = !x land ((2 * nvars) - 1) in
      if d.value.(l) = 0 then assign l
    end
    else begin
      let falsified = d.trail.(!head) lxor 1 in
      incr head;
      for k = d.occ_start.(falsified) to d.occ_start.(falsified + 1) - 1 do
        let c = 3 * d.occ.(k) in
        let sat = ref false and open_ = ref 0 and last = ref 0 in
        for j = c to c + 2 do
          let v = d.value.(d.lits.(j)) in
          if v = 1 then sat := true
          else if v = 0 then begin
            incr open_;
            last := d.lits.(j)
          end
        done;
        if not !sat then
          if !open_ = 0 then conflict := true
          else if !open_ = 1 && d.value.(!last) = 0 then assign !last
      done
    end
  done;
  for i = 0 to !n - 1 do
    let l = d.trail.(i) in
    d.value.(l) <- 0;
    d.value.(l lxor 1) <- 0
  done;
  !x

(* Seconds one run of the loop takes now. *)
let sample () =
  let d = Lazy.force db in
  let t0 = Clock.now () in
  let x = ref 88172645463325252 in
  for _ = 1 to rounds do
    x := descend d !x
  done;
  ignore (Sys.opaque_identity !x);
  Clock.now () -. t0

(* Reference seconds per measured second, for a loop time [k]. *)
let scale k = reference /. k
