(** Per-byte taintedness masks.

    A mask is a small bitset with one bit per byte of a datum: bit [i]
    set means byte [i] (byte 0 = least significant) is tainted, i.e.
    derived from external input (paper, section 4.1).  Masks for
    32-bit words use 4 bits; the operations are width-generic so the
    same type also describes half-words and larger buffers. *)

type t = int
(** Invariant: non-negative.  Bit [i] = taintedness of byte [i]. *)

val none : t
(** The fully-untainted mask. *)

val all : bytes:int -> t
(** [all ~bytes] taints every one of the [bytes] low bytes. *)

val word : t
(** [all ~bytes:4] — the fully tainted 32-bit word mask. *)

val is_tainted : t -> bool
(** [is_tainted m] is true iff any byte is tainted. *)

val byte : t -> int -> bool
(** [byte m i] is the taintedness of byte [i]. *)

val set_byte : t -> int -> t
(** [set_byte m i] taints byte [i]. *)

val union : t -> t -> t
(** Per-byte OR — the default propagation of Table 1. *)

val restrict : t -> bytes:int -> t
(** Keep only the [bytes] low byte bits. *)

val tainted_bytes : t -> int
(** Number of tainted bytes in the mask. *)

val pp : ?bytes:int -> Format.formatter -> t -> unit
(** Prints e.g. "0011" for a word whose two low bytes are tainted
    (most significant byte first, as in the paper's examples). *)

val equal : t -> t -> bool
