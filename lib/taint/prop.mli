(** Taintedness propagation rules — Table 1 of the paper.

    Each function computes the taint mask of an ALU result from the
    operand values and masks.  The CPU chooses the rule from the
    opcode, mirroring the multiplexer of Figure 3. *)

val default : Mask.t -> Mask.t -> Mask.t
(** Generic ALU rule: per-byte OR of the source masks.  ("Taintedness
    of R1 = (Taintedness of R2) or (Taintedness of R3)".) *)

type direction = Left | Right

val shift : direction -> amount:int -> amount_mask:Mask.t -> Mask.t -> Mask.t
(** Shift rule: taint travels with the shifted bytes, and — when the
    shift amount is not a whole number of bytes — each tainted byte
    also taints its adjacent byte along the shift direction ("if a
    byte in the operand register is tainted, the taintedness bit of
    its adjacent byte along the direction of shifting is set to 1").
    A tainted shift amount conservatively taints the whole result if
    the operand carries any taint. *)

val and_bytes : v1:int -> m1:Mask.t -> v2:int -> m2:Mask.t -> Mask.t
(** AND rule: per-byte OR, except that any byte AND-ed with an
    untainted zero byte is untainted (the result is the constant 0
    regardless of user input). *)

val xor_same : Mask.t
(** [XOR R1,R2,R2] zeroing idiom: the result is the constant 0, so
    its taintedness is 0000.  (Table 1's compare rule, which untaints
    both operand registers, is applied by the CPU when the policy's
    [compare_untaints] is on.) *)
