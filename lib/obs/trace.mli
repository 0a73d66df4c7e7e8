(** A session's event recorder.

    A [Trace.t] records the guest events emitted into it, bounded by
    [limit]; overflow is counted, not silently lost.  Producers hold
    the trace behind an option — the zero-overhead-when-off contract
    is a single physical-equality check on the hot path, never a
    closure call.

    A trace is single-domain state: each simulated session owns its
    own trace. *)

type t

val create : ?limit:int -> unit -> t
(** Record up to [limit] events (default 65536); later emissions only
    bump {!dropped}. *)

val emit : t -> Event.t -> unit
val events : t -> Event.t list
(** Everything recorded, in emission order. *)

val length : t -> int
val dropped : t -> int
