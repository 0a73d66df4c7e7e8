open Insn

let rop_funct = function
  | ADD -> 0x20 | ADDU -> 0x21 | SUB -> 0x22 | SUBU -> 0x23
  | AND -> 0x24 | OR -> 0x25 | XOR -> 0x26 | NOR -> 0x27
  | SLT -> 0x2a | SLTU -> 0x2b | SLLV -> 0x04 | SRLV -> 0x06 | SRAV -> 0x07

let iop_code = function
  | ADDI -> 0x08 | ADDIU -> 0x09 | SLTI -> 0x0a | SLTIU -> 0x0b
  | ANDI -> 0x0c | ORI -> 0x0d | XORI -> 0x0e

let shop_funct = function SLL -> 0x00 | SRL -> 0x02 | SRA -> 0x03
let load_code = function LB -> 0x20 | LH -> 0x21 | LW -> 0x23 | LBU -> 0x24 | LHU -> 0x25
let store_code = function SB -> 0x28 | SH -> 0x29 | SW -> 0x2b
let muldiv_funct = function MULT -> 0x18 | MULTU -> 0x19 | DIV -> 0x1a | DIVU -> 0x1b

let r_type ~rs ~rt ~rd ~shamt ~funct =
  (rs lsl 21) lor (rt lsl 16) lor (rd lsl 11) lor (shamt lsl 6) lor funct

let i_type ~op ~rs ~rt ~imm = (op lsl 26) lor (rs lsl 21) lor (rt lsl 16) lor (imm land 0xffff)

let encode = function
  | R (((SLLV | SRLV | SRAV) as op), rd, value, amount) ->
    (* The AST keeps the shifted value first; the binary format stores
       the amount register in the rs field. *)
    r_type ~rs:amount ~rt:value ~rd ~shamt:0 ~funct:(rop_funct op)
  | R (op, rd, rs, rt) -> r_type ~rs ~rt ~rd ~shamt:0 ~funct:(rop_funct op)
  | I (op, rt, rs, imm) -> i_type ~op:(iop_code op) ~rs ~rt ~imm
  | Shift (op, rd, rt, sh) -> r_type ~rs:0 ~rt ~rd ~shamt:(sh land 31) ~funct:(shop_funct op)
  | Lui (rt, imm) -> i_type ~op:0x0f ~rs:0 ~rt ~imm
  | Load (op, rt, off, base) -> i_type ~op:(load_code op) ~rs:base ~rt ~imm:off
  | Store (op, rt, off, base) -> i_type ~op:(store_code op) ~rs:base ~rt ~imm:off
  | Branch2 (BEQ, rs, rt, off) -> i_type ~op:0x04 ~rs ~rt ~imm:off
  | Branch2 (BNE, rs, rt, off) -> i_type ~op:0x05 ~rs ~rt ~imm:off
  | Branch1 (BLEZ, rs, off) -> i_type ~op:0x06 ~rs ~rt:0 ~imm:off
  | Branch1 (BGTZ, rs, off) -> i_type ~op:0x07 ~rs ~rt:0 ~imm:off
  | Branch1 (BLTZ, rs, off) -> i_type ~op:0x01 ~rs ~rt:0 ~imm:off
  | Branch1 (BGEZ, rs, off) -> i_type ~op:0x01 ~rs ~rt:1 ~imm:off
  | J target -> (0x02 lsl 26) lor ((target lsr 2) land 0x3ffffff)
  | Jal target -> (0x03 lsl 26) lor ((target lsr 2) land 0x3ffffff)
  | Jr rs -> r_type ~rs ~rt:0 ~rd:0 ~shamt:0 ~funct:0x08
  | Jalr (rd, rs) -> r_type ~rs ~rt:0 ~rd ~shamt:0 ~funct:0x09
  | Muldiv (op, rs, rt) -> r_type ~rs ~rt ~rd:0 ~shamt:0 ~funct:(muldiv_funct op)
  | Mfhi rd -> r_type ~rs:0 ~rt:0 ~rd ~shamt:0 ~funct:0x10
  | Mthi rs -> r_type ~rs ~rt:0 ~rd:0 ~shamt:0 ~funct:0x11
  | Mflo rd -> r_type ~rs:0 ~rt:0 ~rd ~shamt:0 ~funct:0x12
  | Mtlo rs -> r_type ~rs ~rt:0 ~rd:0 ~shamt:0 ~funct:0x13
  | Syscall -> r_type ~rs:0 ~rt:0 ~rd:0 ~shamt:0 ~funct:0x0c
  | Break code -> ((code land 0xfffff) lsl 6) lor 0x0d
  | Nop -> 0

let signed16 imm = if imm land 0x8000 <> 0 then imm - 0x10000 else imm

let decode_special w =
  let rs = (w lsr 21) land 31
  and rt = (w lsr 16) land 31
  and rd = (w lsr 11) land 31
  and shamt = (w lsr 6) land 31
  and funct = w land 63 in
  match funct with
  | 0x20 -> Ok (R (ADD, rd, rs, rt))
  | 0x21 -> Ok (R (ADDU, rd, rs, rt))
  | 0x22 -> Ok (R (SUB, rd, rs, rt))
  | 0x23 -> Ok (R (SUBU, rd, rs, rt))
  | 0x24 -> Ok (R (AND, rd, rs, rt))
  | 0x25 -> Ok (R (OR, rd, rs, rt))
  | 0x26 -> Ok (R (XOR, rd, rs, rt))
  | 0x27 -> Ok (R (NOR, rd, rs, rt))
  | 0x2a -> Ok (R (SLT, rd, rs, rt))
  | 0x2b -> Ok (R (SLTU, rd, rs, rt))
  | 0x04 -> Ok (R (SLLV, rd, rt, rs))
  | 0x06 -> Ok (R (SRLV, rd, rt, rs))
  | 0x07 -> Ok (R (SRAV, rd, rt, rs))
  | 0x00 -> Ok (Shift (SLL, rd, rt, shamt))
  | 0x02 -> Ok (Shift (SRL, rd, rt, shamt))
  | 0x03 -> Ok (Shift (SRA, rd, rt, shamt))
  | 0x08 -> Ok (Jr rs)
  | 0x09 -> Ok (Jalr (rd, rs))
  | 0x0c -> Ok Syscall
  | 0x0d -> Ok (Break ((w lsr 6) land 0xfffff))
  | 0x10 -> Ok (Mfhi rd)
  | 0x11 -> Ok (Mthi rs)
  | 0x12 -> Ok (Mflo rd)
  | 0x13 -> Ok (Mtlo rs)
  | 0x18 -> Ok (Muldiv (MULT, rs, rt))
  | 0x19 -> Ok (Muldiv (MULTU, rs, rt))
  | 0x1a -> Ok (Muldiv (DIV, rs, rt))
  | 0x1b -> Ok (Muldiv (DIVU, rs, rt))
  | f -> Error (Printf.sprintf "unknown SPECIAL funct 0x%02x" f)

(* SLLV/SRLV/SRAV store the shift-amount register in the rs field, so
   decoding swaps the operands back: R (op, rd, value, amount). *)
let decode ?(pc = 0) w =
  let w = w land Word.mask32 in
  if w = 0 then Ok Nop
  else
    let op = w lsr 26 in
    let rs = (w lsr 21) land 31
    and rt = (w lsr 16) land 31
    and imm = signed16 (w land 0xffff) in
    match op with
    | 0x00 -> decode_special w
    | 0x01 when rt = 0 -> Ok (Branch1 (BLTZ, rs, imm))
    | 0x01 when rt = 1 -> Ok (Branch1 (BGEZ, rs, imm))
    | 0x01 -> Error "unknown REGIMM rt"
    | 0x02 -> Ok (J ((pc land 0xF0000000) lor ((w land 0x3ffffff) lsl 2)))
    | 0x03 -> Ok (Jal ((pc land 0xF0000000) lor ((w land 0x3ffffff) lsl 2)))
    | 0x04 -> Ok (Branch2 (BEQ, rs, rt, imm))
    | 0x05 -> Ok (Branch2 (BNE, rs, rt, imm))
    | 0x06 -> Ok (Branch1 (BLEZ, rs, imm))
    | 0x07 -> Ok (Branch1 (BGTZ, rs, imm))
    | 0x08 -> Ok (I (ADDI, rt, rs, imm))
    | 0x09 -> Ok (I (ADDIU, rt, rs, imm))
    | 0x0a -> Ok (I (SLTI, rt, rs, imm))
    | 0x0b -> Ok (I (SLTIU, rt, rs, imm))
    | 0x0c -> Ok (I (ANDI, rt, rs, imm land 0xffff))
    | 0x0d -> Ok (I (ORI, rt, rs, imm land 0xffff))
    | 0x0e -> Ok (I (XORI, rt, rs, imm land 0xffff))
    | 0x0f -> Ok (Lui (rt, imm land 0xffff))
    | 0x20 -> Ok (Load (LB, rt, imm, rs))
    | 0x21 -> Ok (Load (LH, rt, imm, rs))
    | 0x23 -> Ok (Load (LW, rt, imm, rs))
    | 0x24 -> Ok (Load (LBU, rt, imm, rs))
    | 0x25 -> Ok (Load (LHU, rt, imm, rs))
    | 0x28 -> Ok (Store (SB, rt, imm, rs))
    | 0x29 -> Ok (Store (SH, rt, imm, rs))
    | 0x2b -> Ok (Store (SW, rt, imm, rs))
    | op -> Error (Printf.sprintf "unknown opcode 0x%02x" op)

