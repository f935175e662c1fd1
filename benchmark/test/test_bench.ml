(* Tests of the benchmark itself: every workload runs end to end on tiny
   inputs, a wrong expected answer is counted as a failure, span self
   times stay inside their parents, and BENCHMARK.json names exactly the
   metrics the runner prints.

   test_bench.exe SATD BENCHMARK_JSON *)

open Benchlib

let failures = ref 0

let check name cond =
  Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") name;
  if not cond then incr failures

let run ?(sabotage = false) name =
  Harness.run (List.assoc name Workloads.all) ~seed:3 ~seconds:0. ~trace:true
    ~short:true ~sabotage

(* Every child's self time fits in its parent's duration, and self times
   are never negative. *)
let spans_nest spans =
  let selfs = Span.self_times spans in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s, _, _) -> Hashtbl.replace by_id s.Span.id s) selfs;
  let child_self = Hashtbl.create 64 in
  List.iter
    (fun (s, self, _) ->
      if s.Span.parent >= 0 then
        Hashtbl.replace child_self s.Span.parent
          (self +. Option.value ~default:0. (Hashtbl.find_opt child_self s.Span.parent)))
    selfs;
  List.for_all (fun (_, self, _) -> self >= -1e-9) selfs
  && Hashtbl.fold
       (fun parent sum ok -> ok && sum <= Span.duration (Hashtbl.find by_id parent) +. 1e-9)
       child_self true

let synthetic_spans () =
  let t = Span.create ~enabled:true in
  Span.with_ t "outer" (fun outer ->
      Span.with_ t ~parent:outer "a" (fun _ -> Unix.sleepf 0.002);
      Span.with_ t ~parent:outer "b" (fun b ->
          Span.with_ t ~parent:b "c" (fun _ -> Unix.sleepf 0.001)));
  let spans = Span.spans t in
  let layer = Span.by_layer spans in
  let outer = List.find (fun s -> s.Span.name = "outer") spans in
  let total = Hashtbl.fold (fun _ l acc -> acc +. l.Span.self_s) layer 0. in
  spans_nest spans && Float.abs (total -. Span.duration outer) < 1e-6

let names_in json key =
  match Sat.Json.member key json with
  | Some (Sat.Json.List items) ->
    List.filter_map
      (fun m ->
        match Sat.Json.member "name" m, Sat.Json.member "unit" m with
        | Some (Sat.Json.String n), Some (Sat.Json.String u) -> Some (n, u)
        | Some (Sat.Json.String n), None -> Some (n, "")
        | _ -> None)
      items
  | _ -> []

(* Per-layer metrics of the README's table that each workload must fill,
   even in a short run.  Counts that can truly be zero (eliminated
   variables, dynamic splits, major collections) are left out, and so
   are cube-conquer's cubes and conflicts: lookahead alone settles its
   short inputs. *)
let filled =
  let cdcl =
    [ "cdcl.search_s"; "cdcl.propagations"; "cdcl.props_per_s"; "cdcl.probe_ns" ]
  in
  let conflicts = [ "cdcl.conflicts"; "gc.minor_words_per_conflict" ] in
  [ ("cert-batch",
     [ "dimacs.parse_s"; "dimacs.mb_per_s"; "preprocess.s"; "proof.steps";
       "proof.trim_s"; "proof.kept_frac"; "proof.lrat_check_s"; "model.eval_s" ]
     @ cdcl @ conflicts);
    ("cec-fraig",
     [ "sweep.simulate_s"; "sweep.refine_s"; "sweep.prove_s"; "sweep.sat_calls";
       "sweep.us_per_sat_call"; "sweep.merge_frac" ] @ cdcl @ conflicts);
    ("satd-stream",
     [ "protocol.encode_us"; "protocol.decode_us"; "satd.hit_service_s";
       "satd.warm_service_s"; "satd.cold_service_s"; "cache.result_hit_frac";
       "cache.warm_hit_frac"; "scheduler.peak_queue_depth" ]);
    ("cube-conquer",
     [ "cube.generate_s"; "cube.probes"; "conquer.cpu_util";
       "dimacs.parse_s"; "dimacs.mb_per_s" ] @ cdcl) ]

let () =
  Satd_stream.binary := Sys.argv.(1);
  let bench =
    In_channel.with_open_bin Sys.argv.(2) In_channel.input_all |> Sat.Json.parse_exn
  in
  check "BENCHMARK.json end_to_end matches the runner"
    (names_in bench "end_to_end" = Layers.end_to_end);
  check "BENCHMARK.json per_layer matches the runner"
    (names_in bench "per_layer" = Layers.per_layer);
  check "BENCHMARK.json workloads match the runner"
    (List.map fst (names_in bench "workloads") = List.map fst Workloads.all);
  check "synthetic spans: self times partition the root" (synthetic_spans ());
  List.iter
    (fun (name, _) ->
      let r = run name in
      check (name ^ ": short run answers every input correctly")
        (r.Harness.attempted > 0 && r.Harness.failed = 0);
      check (name ^ ": every end-to-end metric, none zero")
        (List.map fst r.Harness.end_to_end = List.map fst Layers.end_to_end
         && List.for_all (fun (_, v) -> Float.is_finite v && v > 0.) r.Harness.end_to_end);
      check (name ^ ": every per-layer metric")
        (List.map fst r.Harness.per_layer = List.map fst Layers.per_layer);
      List.iter
        (fun k ->
          check (Printf.sprintf "%s: %s is filled" name k)
            (List.assoc k r.Harness.per_layer > 0.))
        (List.assoc name filled);
      check (name ^ ": child self times within parents") (spans_nest r.Harness.spans);
      let bad = run ~sabotage:true name in
      check (name ^ ": a wrong expected answer counts as failed")
        (bad.Harness.failed > 0
         && List.assoc "failed_frac" bad.Harness.per_layer > 0.))
    Workloads.all;
  let counters name =
    let r = run name in
    List.assoc "seeded_counters" r.Harness.context
  in
  List.iter
    (fun name ->
      check (name ^ ": seeded counters repeat exactly")
        (Sat.Json.equal (counters name) (counters name)))
    [ "cert-batch"; "cec-fraig" ];
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
