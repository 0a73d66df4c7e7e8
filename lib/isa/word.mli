(** 32-bit word arithmetic on OCaml [int].

    All values are kept in [0, 2^32); [to_signed] reinterprets as a
    two's-complement signed value when an instruction calls for signed
    semantics. *)

val mask32 : int
val of_int : int -> int
(** Truncate to 32 bits. *)

val to_signed : int -> int
(** Two's-complement reinterpretation: [to_signed 0xFFFFFFFF = -1]. *)

val of_signed : int -> int
(** Inverse of {!to_signed} (truncates). *)

val add : int -> int -> int
val sub : int -> int -> int
val mul_lo : int -> int -> int
val mul_hi_signed : int -> int -> int
val mul_hi_unsigned : int -> int -> int
val div_signed : int -> int -> int * int
(** [div_signed a b] is [(quotient, remainder)] with signed semantics;
    division by zero yields [(0, a)] (no trap, as in SimpleScalar). *)

val div_unsigned : int -> int -> int * int
val sll : int -> int -> int
val srl : int -> int -> int
val sra : int -> int -> int
val sign_extend : bits:int -> int -> int
(** [sign_extend ~bits v] sign-extends the low [bits] of [v] to 32. *)

val byte : int -> int -> int
(** [byte v i] extracts byte [i] (0 = least significant). *)

val set_byte : int -> int -> int -> int
(** [set_byte v i b] replaces byte [i] of [v] with [b]. *)

val lt_signed : int -> int -> bool
val lt_unsigned : int -> int -> bool
