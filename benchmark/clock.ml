(* Every span and window is timed on CLOCK_MONOTONIC through bechamel's
   stub: it never jumps with wall-clock adjustments and is not clamped. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
