(* Stop token: an optional absolute deadline plus cancel flags.  See
   stop.mli for the contract. *)

type t = { deadline : float; flags : bool Atomic.t list }

let none = { deadline = infinity; flags = [] }

let create ?deadline () =
  { deadline = Option.value deadline ~default:infinity;
    flags = [ Atomic.make false ] }

let after seconds = create ~deadline:(Monotime.now_s () +. seconds) ()
let child t = { t with flags = Atomic.make false :: t.flags }
let cancel t = match t.flags with f :: _ -> Atomic.set f true | [] -> ()

let reason t =
  if List.exists Atomic.get t.flags then Some "interrupted"
  else if t.deadline < infinity && Monotime.now_s () >= t.deadline then
    Some "timeout"
  else None
