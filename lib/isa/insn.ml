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
  | R of rop * Reg.t * Reg.t * Reg.t
  | I of iop * Reg.t * Reg.t * int
  | Shift of shop * Reg.t * Reg.t * int
  | Lui of Reg.t * int
  | Load of load_op * Reg.t * int * Reg.t
  | Store of store_op * Reg.t * int * Reg.t
  | Branch2 of branch2 * Reg.t * Reg.t * int
  | Branch1 of branch1 * Reg.t * int
  | J of int
  | Jal of int
  | Jr of Reg.t
  | Jalr of Reg.t * Reg.t
  | Muldiv of muldiv * Reg.t * Reg.t
  | Mfhi of Reg.t
  | Mflo of Reg.t
  | Mthi of Reg.t
  | Mtlo of Reg.t
  | Syscall
  | Break of int
  | Nop

let equal (a : t) (b : t) = a = b

let rop_name = function
  | ADD -> "add" | ADDU -> "addu" | SUB -> "sub" | SUBU -> "subu"
  | AND -> "and" | OR -> "or" | XOR -> "xor" | NOR -> "nor"
  | SLT -> "slt" | SLTU -> "sltu"
  | SLLV -> "sllv" | SRLV -> "srlv" | SRAV -> "srav"

let iop_name = function
  | ADDI -> "addi" | ADDIU -> "addiu" | ANDI -> "andi" | ORI -> "ori"
  | XORI -> "xori" | SLTI -> "slti" | SLTIU -> "sltiu"

let shop_name = function SLL -> "sll" | SRL -> "srl" | SRA -> "sra"

let load_name = function
  | LB -> "lb" | LBU -> "lbu" | LH -> "lh" | LHU -> "lhu" | LW -> "lw"

let store_name = function SB -> "sb" | SH -> "sh" | SW -> "sw"
let branch2_name = function BEQ -> "beq" | BNE -> "bne"

let branch1_name = function
  | BLEZ -> "blez" | BGTZ -> "bgtz" | BLTZ -> "bltz" | BGEZ -> "bgez"

let muldiv_name = function
  | MULT -> "mult" | MULTU -> "multu" | DIV -> "div" | DIVU -> "divu"

let pp ppf = function
  | R (op, rd, rs, rt) ->
    Format.fprintf ppf "%s %a,%a,%a" (rop_name op) Reg.pp rd Reg.pp rs Reg.pp rt
  | I (op, rt, rs, imm) ->
    Format.fprintf ppf "%s %a,%a,%d" (iop_name op) Reg.pp rt Reg.pp rs imm
  | Shift (op, rd, rt, sh) ->
    Format.fprintf ppf "%s %a,%a,%d" (shop_name op) Reg.pp rd Reg.pp rt sh
  | Lui (rt, imm) -> Format.fprintf ppf "lui %a,0x%x" Reg.pp rt imm
  | Load (op, rt, off, base) ->
    Format.fprintf ppf "%s %a,%d(%a)" (load_name op) Reg.pp rt off Reg.pp base
  | Store (op, rt, off, base) ->
    Format.fprintf ppf "%s %a,%d(%a)" (store_name op) Reg.pp rt off Reg.pp base
  | Branch2 (op, rs, rt, off) ->
    Format.fprintf ppf "%s %a,%a,%d" (branch2_name op) Reg.pp rs Reg.pp rt off
  | Branch1 (op, rs, off) ->
    Format.fprintf ppf "%s %a,%d" (branch1_name op) Reg.pp rs off
  | J target -> Format.fprintf ppf "j 0x%x" target
  | Jal target -> Format.fprintf ppf "jal 0x%x" target
  | Jr rs -> Format.fprintf ppf "jr %a" Reg.pp rs
  | Jalr (rd, rs) -> Format.fprintf ppf "jalr %a,%a" Reg.pp rd Reg.pp rs
  | Muldiv (op, rs, rt) ->
    Format.fprintf ppf "%s %a,%a" (muldiv_name op) Reg.pp rs Reg.pp rt
  | Mfhi rd -> Format.fprintf ppf "mfhi %a" Reg.pp rd
  | Mflo rd -> Format.fprintf ppf "mflo %a" Reg.pp rd
  | Mthi rs -> Format.fprintf ppf "mthi %a" Reg.pp rs
  | Mtlo rs -> Format.fprintf ppf "mtlo %a" Reg.pp rs
  | Syscall -> Format.pp_print_string ppf "syscall"
  | Break code -> Format.fprintf ppf "break %d" code
  | Nop -> Format.pp_print_string ppf "nop"

let to_string i = Format.asprintf "%a" pp i

let uses_compare = function
  | R ((SLT | SLTU), _, _, _) | I ((SLTI | SLTIU), _, _, _)
  | Branch2 _ | Branch1 _ -> true
  | R _ | I _ | Shift _ | Lui _ | Load _ | Store _ | J _ | Jal _ | Jr _
  | Jalr _ | Muldiv _ | Mfhi _ | Mflo _ | Mthi _ | Mtlo _ | Syscall
  | Break _ | Nop -> false

let reads = function
  | R (_, _, rs, rt) -> [ rs; rt ]
  | I (_, _, rs, _) -> [ rs ]
  | Shift (_, _, rt, _) -> [ rt ]
  | Lui _ -> []
  | Load (_, _, _, base) -> [ base ]
  | Store (_, rt, _, base) -> [ rt; base ]
  | Branch2 (_, rs, rt, _) -> [ rs; rt ]
  | Branch1 (_, rs, _) -> [ rs ]
  | J _ | Jal _ -> []
  | Jr rs | Jalr (_, rs) -> [ rs ]
  | Muldiv (_, rs, rt) -> [ rs; rt ]
  | Mfhi _ | Mflo _ -> []
  | Mthi rs | Mtlo rs -> [ rs ]
  | Syscall -> [ Reg.v0; Reg.a0; Reg.a1; Reg.a2; Reg.a3 ]
  | Break _ | Nop -> []

let is_control = function
  | Branch2 _ | Branch1 _ | J _ | Jal _ | Jr _ | Jalr _ -> true
  | _ -> false
