(* The metric catalogue (mirrored by BENCHMARK.json) and the accumulator
   the traced passes fill.

   Per-layer values are per pass: sums over one pass of the workload's
   inputs, averaged over the traced passes, unless the name says
   otherwise (fractions, rates and per-call medians).  A layer a workload
   does not exercise reports 0. *)

let end_to_end =
  [ ("setup_s", "s"); ("wall_s", "s"); ("cpu_s", "s"); ("peak_rss_mb", "MB");
    ("qps", "1/s"); ("latency_p50_s", "s"); ("latency_tail_s", "s") ]

(* Layers the runner wraps in spans: [pass] is one pass over the inputs,
   [job] one input (or one satd query), the rest are public calls. *)
let span_layers =
  [ "pass"; "job"; "dimacs"; "solver"; "proof.trim"; "proof.check";
    "model.eval"; "sweep"; "simulate"; "conquer"; "protocol.encode";
    "satd.wait"; "protocol.decode" ]

let named =
  [ ("dimacs.parse_s", "s"); ("dimacs.mb_per_s", "MB/s");
    ("preprocess.s", "s"); ("preprocess.vars_eliminated", "count");
    ("preprocess.clauses_removed", "count");
    ("cdcl.search_s", "s"); ("cdcl.conflicts", "count");
    ("cdcl.decisions", "count"); ("cdcl.propagations", "count");
    ("cdcl.props_per_s", "1/s"); ("cdcl.probe_ns", "ns");
    ("gc.minor_words_per_conflict", "words"); ("gc.major_collections", "count");
    ("proof.steps", "count"); ("proof.trim_s", "s"); ("proof.kept_frac", "frac");
    ("proof.lrat_check_s", "s"); ("model.eval_s", "s");
    ("sweep.simulate_s", "s"); ("sweep.refine_s", "s"); ("sweep.prove_s", "s");
    ("sweep.other_s", "s"); ("sweep.sat_calls", "count");
    ("sweep.us_per_sat_call", "us"); ("sweep.merge_frac", "frac");
    ("sweep.conflicts", "count");
    ("cube.generate_s", "s"); ("cube.cubes", "count"); ("cube.probes", "count");
    ("conquer.s", "s"); ("conquer.solved_cubes", "count");
    ("conquer.splits", "count"); ("conquer.pool_size", "count");
    ("conquer.cpu_util", "frac");
    ("protocol.encode_us", "us"); ("protocol.decode_us", "us");
    ("satd.hit_service_s", "s"); ("satd.warm_service_s", "s");
    ("satd.cold_service_s", "s"); ("satd.overhead_s", "s");
    ("cache.result_hit_frac", "frac"); ("cache.warm_hit_frac", "frac");
    ("scheduler.peak_queue_depth", "count");
    ("trace.overhead_frac", "frac"); ("trace.unattributed_frac", "frac");
    ("failed_frac", "frac"); ("counters.compared", "count");
    ("counters.changed", "count") ]

(* Named metrics that are a span layer's self time per pass.  The harness
   fills them, and the layer's span metrics leave out [self_s], so that
   each value has one name. *)
let span_named =
  [ ("dimacs", "dimacs.parse_s"); ("proof.trim", "proof.trim_s");
    ("proof.check", "proof.lrat_check_s"); ("model.eval", "model.eval_s") ]

let span_metrics l =
  (if List.mem_assoc l span_named then [] else [ ("span." ^ l ^ ".self_s", "s") ])
  @ [ ("span." ^ l ^ ".calls", "count"); ("span." ^ l ^ ".alloc_mb", "MB") ]

let per_layer = named @ List.concat_map span_metrics span_layers

(* Sums over the traced passes, plus per-call samples for medians. *)
type t = { sums : (string, float) Hashtbl.t; samples : (string, float list) Hashtbl.t }

let create () = { sums = Hashtbl.create 32; samples = Hashtbl.create 8 }

let add t k v =
  Hashtbl.replace t.sums k (v +. Option.value ~default:0. (Hashtbl.find_opt t.sums k))

let sample t k v =
  Hashtbl.replace t.samples k (v :: Option.value ~default:[] (Hashtbl.find_opt t.samples k))

let sum t k = Option.value ~default:0. (Hashtbl.find_opt t.sums k)

let median t k =
  match Hashtbl.find_opt t.samples k with
  | None | Some [] -> 0.
  | Some xs -> Stats.median xs

let ratio a b = if b > 0. then a /. b else 0.
