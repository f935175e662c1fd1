(* The workload interface and the measuring loop shared by all workloads.

   A run sets the workload up several times (the median is [setup_s]),
   fixes the expected answers and warms caches, then runs passes over the
   inputs until the time budget is spent.  End-to-end metrics come from
   untraced passes only.  Their times are in reference seconds: the
   reference loop ({!Calib}) runs before the first pass and after every
   pass, and each pass, its requests and the set-up after it are scaled
   by the host's speed around them.  With tracing on, a second window of
   passes runs with spans and per-layer accounting, and the ratio of the
   two windows' median pass times is the tracing overhead.  Per-layer
   times are measured seconds. *)

type job = { latency : float; ok : bool }

type ctx = {
  spans : Span.t;  (** enabled only in traced passes *)
  layers : Layers.t;  (** per-layer sums of the current window *)
  parent : int;  (** the enclosing [pass] span *)
  index : int;  (** pass number, unique within a run *)
}

module type WORKLOAD = sig
  type t

  val name : string

  val seeded : string list
  (** Per-layer counters that repeat exactly for a given seed; they are
      compared with the checked-in baseline. *)

  val tail_percentile : float
  (** The percentile [latency_tail_s] reports (see [Stats.tail]). *)

  val setup : seed:int -> short:bool -> t
  (** Input generation (and daemon start-up); timed as [setup_s]. *)

  val prepare : t -> unit
  (** Untimed: fix expected answers that need a certified solve, warm up. *)

  val sabotage : t -> unit
  (** Flip one expected answer (tests only). *)

  val stage : t -> int -> unit
  (** Untimed: build the inputs of the pass with this index, if the
      workload makes fresh inputs per pass. *)

  val pass : t -> ctx -> job list

  val finish :
    t -> Layers.t -> span_self:(string -> float) -> passes:int ->
    (string * float) list
  (** Named per-layer metrics of a traced window; [span_self layer] is the
      layer's span self time per pass. *)

  val cpu : t -> float
  (** User+sys seconds consumed so far by the solving process. *)

  val peak_rss_mb : t -> float
  val close : t -> unit
end

(* One pass over a batch: a [job] span per item, whose id is the parent of
   the item's layer spans.  The whole batch is submitted at once, so an
   item's latency is the time from the start of the pass to its checked
   verdict. *)
let jobs items (ctx : ctx) run_one =
  let t0 = Clock.now () in
  Array.to_list
    (Array.mapi
       (fun rid x ->
         let ok =
           Span.with_ ctx.spans ~parent:ctx.parent ~rid "job" (fun job ->
               run_one job rid x)
         in
         { latency = Clock.now () -. t0; ok })
       items)

(* A verdict that is wrong or could not be checked is named on stderr. *)
let checked workload label ok =
  if not ok then Printf.eprintf "%s: %s: wrong or unchecked verdict\n%!" workload label;
  ok

let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM of /proc/<pid>/status in MB ("self" for this process). *)
let peak_rss_mb pid =
  try
    let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
    let rec find () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float kb /. 1024.)
      | _ -> find ()
      | exception End_of_file -> nan
    in
    let v = find () in
    close_in ic;
    v
  with Sys_error _ -> nan

(* Steal and total jiffies of the host (the first line of /proc/stat), to
   tell host noise from a change in the program; zeros when unreadable. *)
let host_jiffies () =
  try
    let ic = open_in "/proc/stat" in
    let l = input_line ic in
    close_in ic;
    match List.filter (( <> ) "") (String.split_on_char ' ' l) with
    | "cpu" :: xs ->
      let xs = List.map float_of_string (List.filteri (fun i _ -> i < 8) xs) in
      (List.nth xs 7, List.fold_left ( +. ) 0. xs)
    | _ -> (0., 0.)
  with Sys_error _ | End_of_file | Failure _ | Invalid_argument _ -> (0., 0.)

type window = {
  walls : float list;  (** reference seconds, like [cpus] and job latencies *)
  measured : float list;  (** the pass walls in measured seconds *)
  cpus : float list;
  jobs : job list;
  layers : Layers.t;
  spans : Span.t;
}

type result = {
  attempted : int;
  failed : int;
  end_to_end : (string * float) list;
  per_layer : (string * float) list;
  seeded : (string * float) list;  (** per-pass seeded counters *)
  context : (string * Sat.Json.t) list;
  spans : Span.span list;
}

let run (module W : WORKLOAD) ~seed ~seconds ~trace ~short ~sabotage =
  (* [setup_s] is the median of three set-ups before measuring and one
     more after every untraced pass (closed at once), so that its samples
     spread over the whole run as the pass times do, and a slow phase of a
     shared host at the start does not decide it.  The last of the first
     three is the instance measured. *)
  let setups = ref [] (* (measured, reference) seconds *)
  and unscaled = ref [] (* measured, awaiting the next loop time *)
  and loops = ref [] in
  let timed_setup () =
    let t0 = Clock.now () in
    let w = W.setup ~seed ~short in
    unscaled := (Clock.now () -. t0) :: !unscaled;
    w
  in
  (* Times the reference loop and scales the set-ups waiting for it. *)
  let loop () =
    let k = Calib.sample () in
    loops := k :: !loops;
    setups := List.map (fun s -> (s, s *. Calib.scale k)) !unscaled @ !setups;
    unscaled := [];
    k
  in
  let rec first k =
    let w = timed_setup () in
    if k <= 1 || short then w else (W.close w; first (k - 1))
  in
  let w = first 3 in
  Fun.protect ~finally:(fun () -> W.close w) @@ fun () ->
  W.prepare w;
  if sabotage then W.sabotage w;
  let next_index = ref 0 in
  let window ~traced budget =
    let spans = Span.create ~enabled:traced and layers = Layers.create () in
    let start = Clock.now () in
    let rec go k_before walls measured cpus jobs =
      if walls <> [] && Clock.now () -. start >= budget then
        { walls = List.rev walls; measured = List.rev measured;
          cpus = List.rev cpus; jobs; layers; spans }
      else begin
        let index = !next_index in
        incr next_index;
        W.stage w index;
        let c0 = W.cpu w and t0 = Clock.now () in
        let js =
          Span.with_ spans "pass" (fun parent ->
              W.pass w { spans; layers; parent; index })
        in
        let wall = Clock.now () -. t0 in
        let cpu = W.cpu w -. c0 in
        if not traced then W.close (timed_setup ());
        let k_after = loop () in
        let scale = Calib.scale ((k_before +. k_after) /. 2.) in
        let scaled j = { j with latency = j.latency *. scale } in
        go k_after ((wall *. scale) :: walls) (wall :: measured)
          ((cpu *. scale) :: cpus)
          (List.rev_append (List.map scaled js) jobs)
      end
    in
    go (loop ()) [] [] [] []
  in
  (* A traced run splits its time between an untraced and a traced
     window, so that both kinds of run take about as long. *)
  let budget = if trace then seconds /. 2. else seconds in
  let steal0, total0 = host_jiffies () in
  let plain = window ~traced:false budget in
  let steal1, total1 = host_jiffies () in
  let traced = if trace then Some (window ~traced:true budget) else None in
  let all_jobs =
    plain.jobs @ Option.fold ~none:[] ~some:(fun t -> t.jobs) traced
  in
  let attempted = List.length all_jobs in
  let failed = List.length (List.filter (fun j -> not j.ok) all_jobs) in
  let requests = List.map (fun j -> j.latency) plain.jobs in
  let tail, tail_pct, tail_beyond = Stats.tail ~want:W.tail_percentile requests in
  let wall = Stats.median plain.walls in
  let end_to_end =
    [ ("setup_s", Stats.median (List.map snd !setups)); ("wall_s", wall);
      ("cpu_s", Stats.median plain.cpus); ("peak_rss_mb", W.peak_rss_mb w);
      ("qps", float (List.length plain.jobs) /. Stats.sum plain.walls);
      ("latency_p50_s", Stats.median requests); ("latency_tail_s", tail) ]
  in
  let per_layer, spans =
    match traced with
    | None -> ([], [])
    | Some t ->
      let passes = List.length t.walls in
      let per_pass v = v /. float passes in
      let spans = Span.spans t.spans in
      let by_layer = Span.by_layer spans in
      let span_metrics =
        List.concat_map
          (fun l ->
            let x =
              Option.value (Hashtbl.find_opt by_layer l)
                ~default:{ Span.self_s = 0.; calls = 0; alloc_words = 0. }
            in
            [ ("span." ^ l ^ ".self_s", per_pass x.Span.self_s);
              ("span." ^ l ^ ".calls", per_pass (float x.Span.calls));
              ("span." ^ l ^ ".alloc_mb",
               per_pass (x.Span.alloc_words *. 8. /. 1e6)) ]
            @ Option.fold ~none:[] ~some:(fun n -> [ (n, per_pass x.Span.self_s) ])
                (List.assoc_opt l Layers.span_named))
          Layers.span_layers
      in
      let runner_self =
        List.fold_left
          (fun a l ->
            a +. Option.fold ~none:0. ~some:(fun x -> x.Span.self_s)
                   (Hashtbl.find_opt by_layer l))
          0. [ "pass"; "job" ]
      in
      let span_self l =
        Option.fold ~none:0. ~some:(fun x -> per_pass x.Span.self_s)
          (Hashtbl.find_opt by_layer l)
      in
      let named = W.finish w t.layers ~span_self ~passes in
      let own =
        [ ("trace.overhead_frac", (Stats.median t.walls /. wall) -. 1.);
          ("trace.unattributed_frac", runner_self /. Stats.sum t.measured);
          ("failed_frac", Layers.ratio (float failed) (float attempted)) ]
      in
      let given = named @ own @ span_metrics in
      ( List.map
          (fun (n, _) -> (n, Option.value ~default:0. (List.assoc_opt n given)))
          Layers.per_layer,
        spans )
  in
  let seeded =
    List.map
      (fun k -> (k, Layers.sum plain.layers k /. float (List.length plain.walls)))
      W.seeded
  in
  let context =
    [ ("workload", Sat.Json.String W.name); ("seed", Sat.Json.Int seed);
      ("nproc", Sat.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Sat.Json.String Sys.ocaml_version);
      ("pass_walls_s",
       Sat.Json.List (List.map (fun x -> Sat.Json.Float x) plain.measured));
      ("requests", Sat.Json.Int (List.length requests));
      ("tail_percentile", Sat.Json.Float tail_pct);
      ("tail_samples_beyond", Sat.Json.Int tail_beyond);
      ("setup_reps", Sat.Json.Int (List.length !setups));
      ("measured_s",
       Sat.Json.Obj
         [ ("setup_s", Sat.Json.Float (Stats.median (List.map fst !setups)));
           ("wall_s", Sat.Json.Float (Stats.median plain.measured)) ]);
      ("calib_loop_s",
       Sat.Json.List (List.rev_map (fun x -> Sat.Json.Float x) !loops));
      ("host_steal_frac",
       Sat.Json.Float (Layers.ratio (steal1 -. steal0) (total1 -. total0)));
      ("seeded_counters",
       Sat.Json.Obj (List.map (fun (k, v) -> (k, Sat.Json.Float v)) seeded)) ]
  in
  { attempted; failed; end_to_end; per_layer; seeded; context; spans }
