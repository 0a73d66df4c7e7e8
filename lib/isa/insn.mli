(** SIMIPS instruction set.

    A 32-bit MIPS-I-like RISC, modelled on the SimpleScalar PISA used
    by the paper: load/store architecture, no branch delay slots, and
    pointer dereference possible only through loads, stores and the
    register jumps [JR]/[JALR] — the three places the taintedness
    detectors watch (paper section 4.3). *)

type rop =
  | ADD | ADDU | SUB | SUBU | AND | OR | XOR | NOR | SLT | SLTU
  | SLLV | SRLV | SRAV

type iop = ADDI | ADDIU | ANDI | ORI | XORI | SLTI | SLTIU
type shop = SLL | SRL | SRA
type load_op = LB | LBU | LH | LHU | LW
type store_op = SB | SH | SW
type branch2 = BEQ | BNE
type branch1 = BLEZ | BGTZ | BLTZ | BGEZ
type muldiv = MULT | MULTU | DIV | DIVU

type t =
  | R of rop * Reg.t * Reg.t * Reg.t      (** [R (op, rd, rs, rt)] *)
  | I of iop * Reg.t * Reg.t * int        (** [I (op, rt, rs, imm16)] *)
  | Shift of shop * Reg.t * Reg.t * int   (** [Shift (op, rd, rt, shamt)] *)
  | Lui of Reg.t * int
  | Load of load_op * Reg.t * int * Reg.t (** [Load (op, rt, offset, base)] *)
  | Store of store_op * Reg.t * int * Reg.t
  | Branch2 of branch2 * Reg.t * Reg.t * int (** word offset from next pc *)
  | Branch1 of branch1 * Reg.t * int
  | J of int                              (** absolute byte address *)
  | Jal of int
  | Jr of Reg.t
  | Jalr of Reg.t * Reg.t                 (** [Jalr (rd, rs)] *)
  | Muldiv of muldiv * Reg.t * Reg.t
  | Mfhi of Reg.t
  | Mflo of Reg.t
  | Mthi of Reg.t
  | Mtlo of Reg.t
  | Syscall
  | Break of int
  | Nop

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Disassembly in the paper's style, e.g. [sw $21,0($3)]. *)

val to_string : t -> string

val uses_compare : t -> bool
(** True for the compare-class instructions (SLT family and
    conditional branches) to which the compare-untaint rule of
    Table 1 applies. *)

val reads : t -> Reg.t list
(** Source registers, for pipeline hazard modelling. *)

val is_control : t -> bool
