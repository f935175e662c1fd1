(* Benchmark runner: runs one workload and prints its metrics.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--satd PATH] [--run-dir DIR] [--commit ID]
            [--counters FILE [--update-counters]]

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}, with the end-to-end
   metrics when --trace is 0 and the per-layer metrics when it is 1.  The
   line before it gives the run's context (host cores, OCaml version,
   commit, tail percentile, seeded counters). *)

module J = Sat.Json

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let commit = ref "unknown"
let counters_file = ref ""
let update = ref false

let spec =
  [ ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N seed the inputs derive from");
    ("--seconds", Arg.Set_float seconds, "S measuring window");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--satd", Arg.Set_string Benchlib.Satd_stream.binary, "PATH satd executable");
    ("--run-dir", Arg.Set_string Benchlib.Satd_stream.run_dir,
     "DIR directory for the daemon socket and the span file");
    ("--commit", Arg.Set_string commit, "ID source revision recorded with the result");
    ("--counters", Arg.Set_string counters_file,
     "FILE checked-in seeded counters to compare against");
    ("--update-counters", Arg.Set update, " record this run's seeded counters in --counters") ]

let read_json path =
  if path <> "" && Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all |> J.parse_exn
  else J.Obj []

(* Replaces member [k] in place, or appends it. *)
let set_member k v = function
  | J.Obj kvs when List.mem_assoc k kvs ->
    J.Obj (List.map (fun (k', v') -> (k', if k' = k then v else v')) kvs)
  | J.Obj kvs -> J.Obj (kvs @ [ (k, v) ])
  | _ -> J.Obj [ (k, v) ]

(* Compares this run's seeded counters with the checked-in ones for the
   same workload and seed.  A difference means the search path changed;
   it is reported, never judged against the noise bounds.  Returns
   (compared, changed). *)
let compare_counters name seed counters =
  let base = read_json !counters_file in
  let key = string_of_int seed in
  let recorded =
    Option.bind (J.member name base) (J.member key)
  in
  let compared, changed =
    match recorded with
    | None ->
      if counters <> [] then
        Printf.printf "counters: no checked-in baseline for %s seed %d\n" name seed;
      (0, 0)
    | Some r ->
      List.fold_left
        (fun (n, d) (k, v) ->
          match Option.bind (J.member k r) J.to_float with
          | Some b when b = v -> (n + 1, d)
          | b ->
            Printf.printf "counters: search-path change: %s %s seed %d: baseline %s, now %.0f\n"
              name k seed
              (Option.fold ~none:"none" ~some:(Printf.sprintf "%.0f") b) v;
            (n + 1, d + 1))
        (0, 0) counters
  in
  if !update && counters <> [] then begin
    let entry = J.Obj (List.map (fun (k, v) -> (k, J.Float v)) counters) in
    let per_workload = Option.value (J.member name base) ~default:(J.Obj []) in
    let updated = set_member name (set_member key entry per_workload) base in
    Out_channel.with_open_bin !counters_file (fun oc ->
        output_string oc (J.to_string ~indent:true updated ^ "\n"))
  end;
  (compared, changed)

let metrics_json values units =
  J.Obj
    (List.map
       (fun (n, v) ->
         (n, J.Obj [ ("value", J.Float v); ("unit", J.String (List.assoc n units)) ]))
       values)

let main () =
  (* Leave through exit on a signal, so the at_exit hooks stop satd. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  (* A daemon that dies mid-reply is a failed query, not a dead runner. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  let w =
    match List.assoc_opt !workload Benchlib.Workloads.all with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map fst Benchlib.Workloads.all));
      exit 2
  in
  if not (Sys.file_exists !Benchlib.Satd_stream.run_dir) then
    Sys.mkdir !Benchlib.Satd_stream.run_dir 0o755;
  let r =
    Benchlib.Harness.run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~short:false ~sabotage:false
  in
  let compared, changed = compare_counters !workload !seed r.seeded in
  if !trace = 1 then
    Benchlib.Span.write_jsonl
      (Filename.concat !Benchlib.Satd_stream.run_dir
         (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed))
      r.spans;
  let metrics, units =
    if !trace = 1 then
      ( List.map
          (fun (n, v) ->
            match n with
            | "counters.compared" -> (n, float compared)
            | "counters.changed" -> (n, float changed)
            | _ -> (n, v))
          r.per_layer,
        Benchlib.Layers.per_layer )
    else (r.end_to_end, Benchlib.Layers.end_to_end)
  in
  let context = ("commit", J.String !commit) :: r.context in
  print_endline (J.to_string (J.Obj [ ("context", J.Obj context) ]));
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool (r.failed = 0)); ("attempted", J.Int r.attempted);
            ("failed", J.Int r.failed); ("metrics", metrics_json metrics units) ]))

let () =
  try main ()
  with e ->
    Printf.eprintf "benchmark failed: %s\n" (Printexc.to_string e);
    exit 2
