open Ptaint_isa

type opcode =
  | Onop
  | Oadd | Osub | Oand | Oor | Oxor | Onor | Oslt | Osltu
  | Osllv | Osrlv | Osrav
  | Oaddi | Oandi | Oori | Oxori | Oslti | Osltiu
  | Osll | Osrl | Osra
  | Olui
  | Olb | Olbu | Olh | Olhu | Olw
  | Osb | Osh | Osw
  | Omult | Omultu | Odiv | Odivu
  | Omfhi | Omflo | Omthi | Omtlo
  | Obeq | Obne | Oblez | Obgtz | Obltz | Obgez
  | Oj | Ojal | Ojr | Ojalr
  | Osyscall | Obreak

type t = {
  base : int;
  n : int;
  ops : opcode array;
  fa : int array;
  fb : int array;
  fc : int array;
  stops : int array;
  insns : Insn.t array;
  counts : int array;
}

(* Instructions that end a basic block: branches, jumps, [syscall],
   [break]. *)
let is_terminator (i : Insn.t) =
  match i with
  | Branch2 _ | Branch1 _ | J _ | Jal _ | Jr _ | Jalr _ | Syscall | Break _ -> true
  | R _ | I _ | Shift _ | Lui _ | Load _ | Store _ | Muldiv _ | Mfhi _ | Mflo _
  | Mthi _ | Mtlo _ | Nop -> false

(* Decode into (opcode, fa, fb, fc).  Immediates are pre-processed to
   exactly what the handler consumes: sign-extension for arithmetic
   immediates, 16-bit truncation for logical ones, <<16 for [lui],
   ×4 for branch offsets, [Word.of_signed] for load/store
   displacements — the handlers then compute the effective address as
   [(base + fc) land mask32], which equals
   [Word.add base (Word.of_signed off)]. *)
let decode (i : Insn.t) =
  match i with
  | Nop -> (Onop, 0, 0, 0)
  | R (op, rd, rs, rt) ->
    let o =
      match op with
      | ADD | ADDU -> Oadd
      | SUB | SUBU -> Osub
      | AND -> Oand
      | OR -> Oor
      | XOR -> Oxor
      | NOR -> Onor
      | SLT -> Oslt
      | SLTU -> Osltu
      | SLLV -> Osllv
      | SRLV -> Osrlv
      | SRAV -> Osrav
    in
    (o, rd, rs, rt)
  | I (op, rt, rs, imm) ->
    let o, imm =
      match op with
      | ADDI | ADDIU -> (Oaddi, Word.of_signed imm)
      | ANDI -> (Oandi, imm land 0xffff)
      | ORI -> (Oori, imm land 0xffff)
      | XORI -> (Oxori, imm land 0xffff)
      | SLTI -> (Oslti, Word.of_signed imm)
      | SLTIU -> (Osltiu, Word.of_signed imm)
    in
    (o, rt, rs, imm)
  | Shift (op, rd, rt, sh) ->
    ((match op with SLL -> Osll | SRL -> Osrl | SRA -> Osra), rd, rt, sh)
  | Lui (rt, imm) -> (Olui, rt, 0, Word.sll (imm land 0xffff) 16)
  | Load (op, rt, off, base) ->
    ((match op with LB -> Olb | LBU -> Olbu | LH -> Olh | LHU -> Olhu | LW -> Olw),
     rt, base, Word.of_signed off)
  | Store (op, rt, off, base) ->
    ((match op with SB -> Osb | SH -> Osh | SW -> Osw), rt, base, Word.of_signed off)
  | Branch2 (op, rs, rt, off) ->
    ((match op with BEQ -> Obeq | BNE -> Obne), rs, rt, off * 4)
  | Branch1 (op, rs, off) ->
    ((match op with BLEZ -> Oblez | BGTZ -> Obgtz | BLTZ -> Obltz | BGEZ -> Obgez),
     rs, 0, off * 4)
  | J target -> (Oj, target, 0, 0)
  | Jal target -> (Ojal, target, 0, 0)
  | Jr rs -> (Ojr, rs, 0, 0)
  | Jalr (rd, rs) -> (Ojalr, rd, rs, 0)
  | Muldiv (op, rs, rt) ->
    ((match op with MULT -> Omult | MULTU -> Omultu | DIV -> Odiv | DIVU -> Odivu),
     rs, rt, 0)
  | Mfhi rd -> (Omfhi, rd, 0, 0)
  | Mflo rd -> (Omflo, rd, 0, 0)
  | Mthi rs -> (Omthi, rs, 0, 0)
  | Mtlo rs -> (Omtlo, rs, 0, 0)
  | Syscall -> (Osyscall, 0, 0, 0)
  | Break code -> (Obreak, code, 0, 0)

let analyze ~base (insns : Insn.t array) =
  let n = Array.length insns in
  let ops = Array.make n Onop in
  let fa = Array.make n 0 in
  let fb = Array.make n 0 in
  let fc = Array.make n 0 in
  for i = 0 to n - 1 do
    let o, a, b, c = decode insns.(i) in
    ops.(i) <- o;
    fa.(i) <- a;
    fb.(i) <- b;
    fc.(i) <- c
  done;
  let stops = Array.make n 0 in
  for i = n - 1 downto 0 do
    stops.(i) <-
      (if is_terminator insns.(i) then i
       else if i = n - 1 then n
       else stops.(i + 1))
  done;
  (* [counts] are the superblock tier's per-entry hotness counters.
     A decoded program (and hence this array) is shared across every
     machine and domain running the same image, so increments race;
     lost updates only delay promotion by a few dispatches, and the
     warm counts let later jobs promote immediately. *)
  { base; n; ops; fa; fb; fc; stops; insns; counts = Array.make (max n 1) 0 }

let index_of ~base ~len pc =
  let off = pc - base in
  if off < 0 || off land 3 <> 0 then -1
  else
    let i = off lsr 2 in
    if i >= len then -1 else i
