(** Scripted network endpoint.

    Experiments drive servers by providing {e sessions}: each session
    is the sequence of messages one client connection delivers.
    [accept] consumes the next pending session; [recv] delivers bytes
    of the current session's messages in order (one message per call
    at most, like TCP segment arrival) and delivers none at end of
    session; [send] records the server's outbound traffic. *)

type t

val create : sessions:string list list -> t
val accept : t -> bool
(** Begin the next session; false when no sessions remain. *)

val recv : t -> max:int -> Ptaint_mem.Memory.t -> int -> taint:bool -> int
(** [recv t ~max mem addr ~taint] copies up to [max] bytes of the
    current message into [mem] at [addr], each byte tainted iff
    [taint], and returns how many (0 at end of session).  The socket
    keeps a cursor into the message, so a partial receive copies
    nothing else.  The bytes are consumed before the copy: one that
    raises {!Ptaint_mem.Memory.Unmapped} part-way still uses them up. *)

val send : t -> string -> unit
val sent : t -> string list
(** All outbound messages, in order. *)
