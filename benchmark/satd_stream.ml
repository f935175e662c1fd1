(* satd-stream: the real satd binary on a Unix socket, driven in a closed
   loop by two connections (one thread each).  Every connection sends a
   seeded mix of three kinds of query and waits for each reply:

   - repeat: exact repeats of small miters, answered by the result cache;
   - grown:  BMC-shaped chains whose every query extends the previous
             one, resumed on a pooled warm session;
   - cold:   distinct medium miters (equivalent, or against a mutant).

   Each pass uses fresh chains and fresh cold miters, so only the repeat
   queries hit the result cache. *)

module G = Circuit.Generators
module P = Service.Protocol
module J = Sat.Json

let name = "satd-stream"
let seeded = []
let tail_percentile = 99. (* 2300-2800 queries in a 30 s run *)
(* Load from one process: no more connections, and no more daemon worker
   domains, than the host has cores, and at most two. *)
let connections = min 2 (Domain.recommended_domain_count ())

(* Set by the command line: the satd executable and a directory for its
   socket. *)
let binary = ref "satd"
let run_dir = ref "."

type query = {
  clauses : int list list;
  assumptions : int list;
  expect : Oracle.answer;
}

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  acc : Buffer.t;
}

type t = {
  seed : int;
  short : bool;
  pid : int;
  sock : string;
  conns : conn array;
  repeats : query array;
  mutable plan : (int * query list array) option;
  mutable next_id : int;
  mutable before : J.t option;  (** stats after the warm-up pass *)
  lock : Mutex.t;
}

(* --- wire ---------------------------------------------------------------- *)

let send c s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

let rec recv_line c =
  let rec scan i = if i >= c.len then None else if Bytes.get c.buf i = '\n' then Some i else scan (i + 1) in
  match scan c.pos with
  | Some i ->
    Buffer.add_subbytes c.acc c.buf c.pos (i - c.pos);
    c.pos <- i + 1;
    let s = Buffer.contents c.acc in
    Buffer.clear c.acc;
    s
  | None ->
    Buffer.add_subbytes c.acc c.buf c.pos (c.len - c.pos);
    let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
    if n = 0 then failwith "satd closed the connection";
    c.pos <- 0;
    c.len <- n;
    recv_line c

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { fd; buf = Bytes.create 65536; pos = 0; len = 0; acc = Buffer.create 4096 }
  | exception Unix.Unix_error _ -> Unix.close fd; None

let rpc c req =
  send c (J.to_string req ^ "\n");
  match J.parse_line (recv_line c) with
  | Error e -> failwith ("satd reply: " ^ e)
  | Ok j -> (match P.reply_of_json j with Ok r -> r | Error e -> failwith ("satd reply: " ^ e))

(* --- daemon lifecycle ------------------------------------------------------ *)

let live = ref []

let reap pid =
  let deadline = Clock.now () +. 5. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Clock.now () < deadline -> Unix.sleepf 0.01; wait ()
    | 0, _ -> Unix.kill pid Sys.sigkill; ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let () =
  at_exit (fun () ->
      List.iter (fun pid -> (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()); reap pid) !live)

let start_daemon sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let workers = connections in
  let pid =
    Unix.create_process !binary
      [| !binary; "--socket"; sock; "--jobs"; string_of_int workers |]
      null null Unix.stderr
  in
  Unix.close null;
  live := pid :: !live;
  let deadline = Clock.now () +. 30. in
  let rec first () =
    match connect sock with
    | Some c -> c
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ when Clock.now () < deadline -> Unix.sleepf 0.002; first ()
       | _ -> failwith "satd did not start")
  in
  let c0 = first () in
  let conns =
    Array.init connections (fun i -> if i = 0 then c0 else Option.get (connect sock))
  in
  Array.iter (fun c -> if (rpc c (P.ping_request ~id:"ping")).P.r_status <> "ok" then failwith "satd ping") conns;
  (pid, conns)

(* --- inputs ------------------------------------------------------------------ *)

let miter_query f expect =
  { clauses = Gen.dimacs_clauses f; assumptions = []; expect }

(* A chain of [len] BMC-shaped queries over a [width]-bit counter that
   starts at [init] and adds its free enable input each step.  Query k
   asks, under the assumption literal b_k, whether the counter can equal
   init + d after exactly k steps: true iff k >= d.  Query k's clause list
   extends query k-1's. *)
let chain st ~width ~len =
  let init = Random.State.int st ((1 lsl width) - len - 1) in
  let d = 1 + Random.State.int st len in
  let target = init + d in
  let next = ref 0 in
  let fresh () = incr next; !next in
  let clauses = ref [] in
  let add c = clauses := c :: !clauses in
  let bit x i v = if (x lsr i) land 1 = 1 then v else -v in
  let state = Array.init width (fun _ -> fresh ()) in
  Array.iteri (fun i v -> add [ bit init i v ]) state;
  let cur = ref state in
  List.init len (fun k ->
      let carry = ref (fresh ()) in
      let prev = !cur in
      cur :=
        Array.init width (fun i ->
            let s = prev.(i) and c = !carry in
            let x = fresh () in
            let c' = fresh () in
            add [ -x; s; c ]; add [ -x; -s; -c ]; add [ x; -s; c ]; add [ x; s; -c ];
            add [ -c'; s ]; add [ -c'; c ]; add [ c'; -s; -c ];
            carry := c';
            x);
      let b = fresh () in
      Array.iteri (fun i x -> add [ -b; bit target i x ]) !cur;
      { clauses = List.rev !clauses; assumptions = [ b ];
        expect = (if k + 1 >= d then Oracle.Sat else Oracle.Unsat) })

(* Repeat queries, chains, chain length and cold queries per connection
   and pass.  The proportions are an assumption, not a measurement: each
   kind of query dominates one end-to-end metric (README.md). *)
let sizes short =
  if short then (2, 1, 3, 1) else (12, 2, 6, 6)

let cold st short i =
  let bits = if short then 3 else 5 in
  let a = G.multiplier ~bits in
  if i mod 3 = 2 then
    let m, _ = Gen.buggy st (G.wallace_multiplier ~bits) in
    miter_query (Gen.permute st (Gen.miter a m)) Oracle.Sat
  else
    miter_query
      (Gen.permute st (Gen.miter a (Gen.restyle st (G.wallace_multiplier ~bits))))
      Oracle.Unsat

(* Pass [index]'s queries for every connection, in a seeded order that
   keeps each chain's queries in sequence. *)
let plan t index =
  let nrep, nchains, len, ncold = sizes t.short in
  Array.init connections (fun c ->
      let st = Gen.state t.seed (name, index, c) in
      let chains = Array.init nchains (fun _ -> ref (chain st ~width:6 ~len)) in
      let colds = ref (List.init ncold (cold st t.short)) in
      let slots =
        Array.of_list
          (List.init nrep (fun _ -> `Repeat)
           @ List.concat (List.init nchains (fun k -> List.init len (fun _ -> `Chain k)))
           @ List.init ncold (fun _ -> `Cold))
      in
      for i = Array.length slots - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = slots.(i) in
        slots.(i) <- slots.(j);
        slots.(j) <- x
      done;
      let pop r = match !r with q :: rest -> r := rest; q | [] -> assert false in
      List.rev
        (snd
           (Array.fold_left
              (fun (i, acc) slot ->
                let q =
                  match slot with
                  | `Repeat -> t.repeats.((i + c) mod Array.length t.repeats)
                  | `Chain k -> pop chains.(k)
                  | `Cold -> pop colds
                in
                (i + 1, q :: acc))
              (0, []) slots)))

(* Set-ups of one run, so that each daemon gets its own socket. *)
let daemons = ref 0

let setup ~seed ~short =
  let st = Gen.state seed name in
  let bits = if short then 2 else 3 in
  let m = G.multiplier ~bits and w = G.wallace_multiplier ~bits in
  let r = G.ripple_adder ~bits:8 and k = G.kogge_stone_adder ~bits:8 in
  (* one binding per draw, so the seed's stream is consumed in order *)
  let q1 = miter_query (Gen.miter m (Gen.restyle st w)) Oracle.Unsat in
  let q2 = miter_query (Gen.miter r (Gen.restyle st k)) Oracle.Unsat in
  let q3 = miter_query (Gen.miter m (fst (Gen.buggy st w))) Oracle.Sat in
  let q4 = miter_query (Gen.miter r (fst (Gen.buggy st k))) Oracle.Sat in
  let repeats = [| q1; q2; q3; q4 |] in
  incr daemons;
  let sock =
    Filename.concat !run_dir (Printf.sprintf "satd-%d-%d.sock" (Unix.getpid ()) !daemons)
  in
  let pid, conns = start_daemon sock in
  { seed; short; pid; sock; conns; repeats; plan = None; next_id = 0; before = None;
    lock = Mutex.create () }

let stage t index = t.plan <- Some (index, plan t index)

let sabotage t =
  t.repeats.(0) <- { (t.repeats.(0)) with expect = Oracle.flip t.repeats.(0).expect }

(* --- one pass ------------------------------------------------------------- *)

let holds m l =
  let v = abs l - 1 in
  let b = v < Array.length m && m.(v) in
  if l > 0 then b else not b

let locked t f = Mutex.lock t.lock; Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let ask t (ctx : Harness.ctx) c q =
  let rid = locked t (fun () -> let r = t.next_id in t.next_id <- r + 1; r) in
  let id = string_of_int rid in
  let params = P.mk_solve ~assumptions:q.assumptions q.clauses in
  let t0 = Clock.now () in
  Span.with_ ctx.spans ~parent:ctx.parent ~rid "job" @@ fun job ->
  let sp name f =
    let s = Clock.now () in
    let v = Span.with_ ctx.spans ~parent:job ~rid name (fun _ -> f ()) in
    (v, Clock.now () -. s)
  in
  let frame, enc = sp "protocol.encode" (fun () -> J.to_string (P.solve_request ~id params) ^ "\n") in
  let line, _ = sp "satd.wait" (fun () -> send c frame; recv_line c) in
  let reply, dec =
    sp "protocol.decode" (fun () ->
        match J.parse_line line with
        | Ok j -> P.reply_of_json j
        | Error e -> Error e)
  in
  let latency = Clock.now () -. t0 in
  let ok =
    match reply with
    | Error _ -> false
    | Ok r ->
      if Span.enabled ctx.spans then
        locked t (fun () ->
            let l = ctx.layers in
            Layers.sample l "protocol.encode_us" (enc *. 1e6);
            Layers.sample l "protocol.decode_us" (dec *. 1e6);
            Layers.sample l "satd.overhead_s" (latency -. r.P.r_time_s);
            Layers.sample l
              (if r.P.r_cached then "satd.hit_service_s"
               else if r.P.r_warm then "satd.warm_service_s"
               else "satd.cold_service_s")
              r.P.r_time_s);
      r.P.r_id = id
      &&
      match r.P.r_status, q.expect, r.P.r_model with
      | "sat", Oracle.Sat, Some m ->
        fst
          (sp "model.eval" (fun () ->
               List.for_all (List.exists (holds m)) q.clauses
               && List.for_all (holds m) q.assumptions))
      | "unsat", Oracle.Unsat, _ -> true
      | _ -> false
  in
  { Harness.latency; ok }

let run_conn t ctx c queries =
  let broken = ref false in
  List.map
    (fun q ->
      if !broken then { Harness.latency = 0.; ok = false }
      else
        try ask t ctx c q
        with e ->
          broken := true;
          Printf.eprintf "%s: connection failed: %s\n%!" name (Printexc.to_string e);
          { Harness.latency = 0.; ok = false })
    queries

let stats t =
  match (rpc t.conns.(0) (P.stats_request ~id:"stats")).P.r_data with
  | Some d -> d
  | None -> failwith "satd stats: no payload"

let pass t (ctx : Harness.ctx) =
  let queries =
    match t.plan with
    | Some (i, p) when i = ctx.index -> p
    | _ -> plan t ctx.index
  in
  let results = Array.make connections [] in
  let threads =
    Array.init connections (fun c ->
        Thread.create (fun () -> results.(c) <- run_conn t ctx t.conns.(c) queries.(c)) ())
  in
  Array.iter Thread.join threads;
  List.concat (Array.to_list results)

(* The warm-up pass fills the result cache; cache fractions are counted
   from its end. *)
let prepare t =
  ignore
    (pass t
       { Harness.spans = Span.create ~enabled:false; layers = Layers.create ();
         parent = -1; index = -1 });
  t.before <- Some (stats t)

let field path j =
  List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path
  |> Fun.flip Option.bind J.to_int
  |> Option.value ~default:0 |> float

let finish t l ~span_self:_ ~passes:_ =
  let after = stats t in
  let before = Option.value t.before ~default:after in
  let delta path = field path after -. field path before in
  [ ("protocol.encode_us", Layers.median l "protocol.encode_us");
    ("protocol.decode_us", Layers.median l "protocol.decode_us");
    ("satd.hit_service_s", Layers.median l "satd.hit_service_s");
    ("satd.warm_service_s", Layers.median l "satd.warm_service_s");
    ("satd.cold_service_s", Layers.median l "satd.cold_service_s");
    ("satd.overhead_s", Layers.median l "satd.overhead_s");
    ("cache.result_hit_frac",
     Layers.ratio (delta [ "cache"; "hits" ])
       (delta [ "cache"; "hits" ] +. delta [ "cache"; "misses" ]));
    ("cache.warm_hit_frac",
     Layers.ratio (delta [ "cache"; "warm_hits" ])
       (delta [ "cache"; "warm_hits" ] +. delta [ "cache"; "cold_misses" ]));
    ("scheduler.peak_queue_depth", field [ "service"; "peak_queue_depth" ] after) ]

(* CPU seconds of the daemon: the sum over its threads of the run time
   in /proc/<pid>/task/*/schedstat (nanoseconds, unlike the clock ticks of
   /proc/<pid>/stat). *)
let cpu t =
  let dir = Printf.sprintf "/proc/%d/task" t.pid in
  try
    Array.fold_left
      (fun acc task ->
        try
          let ic = open_in (Printf.sprintf "%s/%s/schedstat" dir task) in
          let ns = Scanf.sscanf (input_line ic) "%d" Fun.id in
          close_in ic;
          acc +. (float ns *. 1e-9)
        with Sys_error _ | End_of_file | Scanf.Scan_failure _ -> acc)
      0. (Sys.readdir dir)
  with Sys_error _ -> nan

let peak_rss_mb t = Harness.peak_rss_mb (string_of_int t.pid)

let close t =
  (try ignore (rpc t.conns.(0) (P.shutdown_request ~id:"bye")) with _ -> ());
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  reap t.pid;
  try Sys.remove t.sock with Sys_error _ -> ()
