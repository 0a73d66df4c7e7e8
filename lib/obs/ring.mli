(** Bounded ring buffer of tagged items.

    The instruction-window recorder: the CPU pushes [(pc, insn)] pairs
    and the last [capacity] survive.  Backed by two flat preallocated
    arrays, so a push is two stores and two index updates — no
    allocation, whatever the item type. *)

type 'a t

val create : dummy:'a -> int -> 'a t
(** [create ~dummy n] holds the last [n] (tag, item) pairs ([n] is
    clamped to at least 1); [dummy] fills the unused slots. *)

val push : 'a t -> int -> 'a -> unit
val to_list : 'a t -> (int * 'a) list
(** Oldest first; the most recent push is last. *)

val length : 'a t -> int
