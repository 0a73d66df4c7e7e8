(* Monotonic nanosecond clock for every benchmark timing, and its
   offset to the epoch, so the benchmark's Chrome spans share one
   timeline with the daemon's epoch-stamped spans. *)

let ns () = Int64.to_int (Monotonic_clock.now ())
let now () = float_of_int (ns ()) *. 1e-9
let epoch_offset_us = (Unix.gettimeofday () *. 1e6) -. (float_of_int (ns ()) *. 1e-3)

(* A {!now} reading as epoch microseconds. *)
let epoch_us t = (t *. 1e6) +. epoch_offset_us
