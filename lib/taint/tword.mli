(** Tainted 32-bit words: a machine word paired with its per-byte
    taintedness mask.  This is the datum that flows through the
    extended register file, pipeline latches, caches and memory of the
    paper's architecture (section 4.1).

    Representation: a single immediate [int] packing the 32-bit value
    into bits 0-31 and the 4-bit byte mask into bits 32-35.  Every
    operation below is allocation-free, and arrays of [t] are flat
    [int] arrays — this is what makes the simulator's per-instruction
    tag handling cheap (the tag-storage cost axis of the hardware
    taint-tracking literature). *)

type t = private int
(** Invariant: [0 <= t < 2^36]; bits 0-31 the value, bits 32-35 the
    mask.  [private] so the packing is only built by {!make} and
    friends, while [(w :> int)] remains a free coercion for flat
    storage. *)

val make : v:int -> m:Mask.t -> t
(** Masks [v] to 32 bits and [m] to 4 byte-bits. *)

val untainted : int -> t
val tainted : int -> t
(** [tainted v] marks all four bytes tainted. *)

val zero : t
val value : t -> int
val mask : t -> Mask.t
val is_tainted : t -> bool
val with_value : t -> int -> t
val equal : t -> t -> bool

val to_bits : t -> int
(** The raw 36-bit packing, for flat tag-plane storage.  The identity
    function at runtime. *)

val of_bits : int -> t
(** Reconstruct a word from {!to_bits} output; masks stray high bits. *)

val pp : Format.formatter -> t -> unit
(** Prints as [0x<hex>[t:0011]]; the taint suffix is omitted when the
    word is clean. *)
