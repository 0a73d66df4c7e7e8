(** Binary instruction codec (MIPS-I compatible field layout).

    Used to materialise the text segment as bytes (so program sizes
    can be measured as the paper does) and by the round-trip tests;
    the interpreter itself executes the structured {!Insn.t} form. *)

val encode : Insn.t -> int
(** 32-bit encoding.  [Nop] encodes as 0. *)

val decode : ?pc:int -> int -> (Insn.t, string) result
(** [decode ~pc w] decodes [w]; [pc] supplies the high bits of
    J-format targets (the address of the instruction itself). *)
