(* In-memory spans around the benchmark's calls into each layer.

   A span records its layer name, start and end on the monotonic clock,
   the span that caused it, a request id and the words the process
   allocated while it was open.  Spans are kept in memory and written out
   once, at the end of a traced run.  With a disabled recorder the
   wrapped call runs with no clock or GC read at all. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  rid : int;  (** request id shared by the spans of one input; -1 if none *)
  t0 : float;
  t1 : float;
  alloc_words : float;
}

type t = {
  on : bool;
  lock : Mutex.t;
  mutable next : int;
  mutable spans : span list;
}

let create ~enabled = { on = enabled; lock = Mutex.create (); next = 0; spans = [] }
let enabled t = t.on

(* Words allocated by the whole process (all domains) since start. *)
let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let with_ t ?(parent = -1) ?(rid = -1) name f =
  if not t.on then f (-1)
  else begin
    Mutex.lock t.lock;
    let id = t.next in
    t.next <- id + 1;
    Mutex.unlock t.lock;
    let a0 = allocated () in
    let t0 = Clock.now () in
    let finish () =
      let t1 = Clock.now () in
      let s = { id; name; parent; rid; t0; t1; alloc_words = allocated () -. a0 } in
      Mutex.lock t.lock;
      t.spans <- s :: t.spans;
      Mutex.unlock t.lock
    in
    match f id with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let spans t = List.rev t.spans
let duration s = s.t1 -. s.t0

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> (match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
      | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest
      | None -> go acc (Some (a, b)) rest)
  in
  go 0. None clipped

(* Self time of each span: its duration minus the part of it that its
   children cover; self allocation likewise, floored at zero. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let cov =
        covered ~lo:s.t0 ~hi:s.t1 (List.map (fun k -> (k.t0, k.t1)) kids)
      in
      let kid_alloc = List.fold_left (fun a k -> a +. k.alloc_words) 0. kids in
      (s, duration s -. cov, Float.max 0. (s.alloc_words -. kid_alloc)))
    spans

type layer = { self_s : float; calls : int; alloc_words : float }

(* Per-layer totals over [spans]: self time, call count, self allocation. *)
let by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self, alloc) ->
      let l =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ self_s = 0.; calls = 0; alloc_words = 0. }
      in
      Hashtbl.replace tbl s.name
        { self_s = l.self_s +. self; calls = l.calls + 1;
          alloc_words = l.alloc_words +. alloc })
    (self_times spans);
  tbl

let to_json s =
  Sat.Json.Obj
    [ ("id", Sat.Json.Int s.id); ("name", Sat.Json.String s.name);
      ("parent", Sat.Json.Int s.parent); ("rid", Sat.Json.Int s.rid);
      ("start_s", Sat.Json.Float s.t0); ("end_s", Sat.Json.Float s.t1);
      ("alloc_words", Sat.Json.Float s.alloc_words) ]

let write_jsonl path spans =
  let oc = open_out path in
  List.iter (fun s -> output_string oc (Sat.Json.to_string (to_json s) ^ "\n")) spans;
  close_out oc
