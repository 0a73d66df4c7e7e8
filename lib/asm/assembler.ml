open Ptaint_isa

type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

exception Asm_error of error

let fail line message = raise (Asm_error { line; message })

(* ------------------------------------------------------------------ *)
(* Parsed statements                                                   *)

type operand =
  | Oreg of Reg.t
  | Oimm of int
  | Osym of string
  | Omem of int * Reg.t

type word_init = Wint of int | Wsym of string

type stmt =
  | Sinsn of string * operand list
  | Stext
  | Sdata
  | Sword of word_init list
  | Shalf of int list
  | Sbyte of int list
  | Sascii of string
  | Sspace of int
  | Salign of int

type located = { line : int; labels : string list; stmt : stmt option }

let parse_operands line tokens =
  let rec operand = function
    | Lexer.Register r :: rest -> (Oreg r, rest)
    | Lexer.Int d :: Lexer.Lparen :: Lexer.Register r :: Lexer.Rparen :: rest ->
      (Omem (d, r), rest)
    | Lexer.Lparen :: Lexer.Register r :: Lexer.Rparen :: rest -> (Omem (0, r), rest)
    | Lexer.Int d :: rest -> (Oimm d, rest)
    | Lexer.Ident s :: rest -> (Osym s, rest)
    | _ -> fail line "bad operand"
  and operands acc = function
    | [] -> List.rev acc
    | tokens ->
      let op, rest = operand tokens in
      (match rest with
       | [] -> List.rev (op :: acc)
       | Lexer.Comma :: rest -> operands (op :: acc) rest
       | _ -> fail line "expected ',' between operands")
  in
  operands [] tokens

let int_list line ops =
  List.map (function Oimm n -> n | _ -> fail line "expected integer") ops

let word_list line ops =
  List.map
    (function Oimm n -> Wint n | Osym s -> Wsym s | _ -> fail line "expected integer or symbol")
    ops

let parse_stmt line tokens : stmt option =
  match tokens with
  | [] -> None
  | Lexer.Ident d :: rest when String.length d > 0 && d.[0] = '.' -> (
    let ops () = parse_operands line rest in
    match d with
    | ".text" -> Some Stext
    | ".data" -> Some Sdata
    | ".word" -> Some (Sword (word_list line (ops ())))
    | ".half" -> Some (Shalf (int_list line (ops ())))
    | ".byte" -> Some (Sbyte (int_list line (ops ())))
    | ".ascii" -> (
      match rest with
      | [ Lexer.Str s ] -> Some (Sascii s)
      | _ -> fail line ".ascii expects one string")
    | ".asciiz" -> (
      match rest with
      | [ Lexer.Str s ] -> Some (Sascii (s ^ "\000"))
      | _ -> fail line ".asciiz expects one string")
    | ".space" -> (
      match ops () with
      | [ Oimm n ] ->
        if n < 0 then fail line (Printf.sprintf ".space size must be non-negative (got %d)" n);
        Some (Sspace n)
      | _ -> fail line ".space expects a size")
    | ".align" -> (
      match ops () with [ Oimm n ] -> Some (Salign n) | _ -> fail line ".align expects a power")
    | ".globl" | ".global" | ".ent" | ".end" -> None
    | _ -> fail line ("unknown directive " ^ d))
  | Lexer.Ident m :: rest -> Some (Sinsn (m, parse_operands line rest))
  | _ -> fail line "expected mnemonic or directive"

(* Split leading "label:" prefixes off a token list. *)
let rec split_labels acc = function
  | Lexer.Ident l :: Lexer.Colon :: rest when String.length l > 0 && l.[0] <> '.' ->
    split_labels (l :: acc) rest
  | tokens -> (List.rev acc, tokens)

let parse_line lineno text : located =
  match Lexer.tokenize text with
  | Error m -> fail lineno m
  | Ok tokens ->
    let labels, rest = split_labels [] tokens in
    { line = lineno; labels; stmt = parse_stmt lineno rest }

(* ------------------------------------------------------------------ *)
(* Pseudo-instruction expansion length                                 *)

let fits16 v = v >= -32768 && v <= 32767

let li_length v = if fits16 v || v land 0xffff = 0 then 1 else 2

let insn_length line mnemonic ops =
  match (mnemonic, ops) with
  | "li", [ _; Oimm v ] -> li_length v
  | "la", _ -> 2
  | ("blt" | "ble" | "bgt" | "bge" | "bltu" | "bleu" | "bgtu" | "bgeu"), _ -> 2
  | ("seq" | "sne" | "mul" | "divq" | "rem"), _ -> 2
  | ("lb" | "lbu" | "lh" | "lhu" | "lw" | "sb" | "sh" | "sw"), [ _; Osym _ ] -> 2
  | "li", _ -> fail line "li expects register, immediate"
  | _ -> 1

(* ------------------------------------------------------------------ *)
(* Encoding pass                                                       *)

(* hi/lo split for [lui at, hi; op ..., lo(at)] sequences, accounting
   for the sign extension of 16-bit displacements. *)
let split_addr addr =
  let hi = (addr + 0x8000) lsr 16 in
  let lo = addr - (hi lsl 16) in
  (hi land 0xffff, lo)

type env = { resolve : int -> string -> int (* line -> symbol -> address *) }

let reg line = function Oreg r -> r | _ -> fail line "expected register"
let imm line = function Oimm n -> n | _ -> fail line "expected immediate"

let imm_or_sym env line = function
  | Oimm n -> n
  | Osym s -> env.resolve line s
  | _ -> fail line "expected immediate or symbol"

let branch_off env line pc target_op =
  let target = match target_op with
    | Osym s -> env.resolve line s
    | Oimm n -> n
    | _ -> fail line "expected branch target"
  in
  let delta = target - (pc + 4) in
  if delta land 3 <> 0 then fail line "misaligned branch target";
  let off = delta asr 2 in
  if not (fits16 off) then fail line "branch target out of range";
  off

let li_insns rd v =
  if fits16 v then [ Insn.I (ADDIU, rd, Reg.zero, v) ]
  else if v land 0xffff = 0 then [ Insn.Lui (rd, (v lsr 16) land 0xffff) ]
  else [ Insn.Lui (rd, (v lsr 16) land 0xffff); Insn.I (ORI, rd, rd, v land 0xffff) ]

let la_insns rd addr =
  [ Insn.Lui (rd, (addr lsr 16) land 0xffff); Insn.I (ORI, rd, rd, addr land 0xffff) ]

let mem_operand env line = function
  | Omem (d, b) -> `Direct (d, b)
  | Osym s -> `Absolute (env.resolve line s)
  | _ -> fail line "expected memory operand"

let load_store make = fun rt -> function
  | `Direct (d, b) -> [ make rt d b ]
  | `Absolute addr ->
    let hi, lo = split_addr addr in
    [ Insn.Lui (Reg.at, hi); make rt lo Reg.at ]

let rop_of_name = function
  | "add" -> Some Insn.ADD | "addu" -> Some ADDU | "sub" -> Some SUB | "subu" -> Some SUBU
  | "and" -> Some AND | "or" -> Some OR | "xor" -> Some XOR | "nor" -> Some NOR
  | "slt" -> Some SLT | "sltu" -> Some SLTU
  | "sllv" -> Some SLLV | "srlv" -> Some SRLV | "srav" -> Some SRAV
  | _ -> None

let iop_of_name = function
  | "addi" -> Some Insn.ADDI | "addiu" -> Some ADDIU | "andi" -> Some ANDI
  | "ori" -> Some ORI | "xori" -> Some XORI | "slti" -> Some SLTI | "sltiu" -> Some SLTIU
  | _ -> None

let shop_of_name = function
  | "sll" -> Some Insn.SLL | "srl" -> Some SRL | "sra" -> Some SRA | _ -> None

let load_of_name = function
  | "lb" -> Some Insn.LB | "lbu" -> Some LBU | "lh" -> Some LH | "lhu" -> Some LHU
  | "lw" -> Some LW | _ -> None

let store_of_name = function
  | "sb" -> Some Insn.SB | "sh" -> Some SH | "sw" -> Some SW | _ -> None

(* Expand one (possibly pseudo) instruction at address [pc]. *)
let expand env line pc mnemonic ops : Insn.t list =
  let r = reg line and i = imm line in
  match (mnemonic, ops) with
  | _, _ when rop_of_name mnemonic <> None -> (
    match ops with
    | [ a; b; c ] -> [ Insn.R (Option.get (rop_of_name mnemonic), r a, r b, r c) ]
    | _ -> fail line (mnemonic ^ " expects 3 registers"))
  | _, _ when iop_of_name mnemonic <> None -> (
    match ops with
    | [ a; b; c ] -> [ Insn.I (Option.get (iop_of_name mnemonic), r a, r b, imm_or_sym env line c) ]
    | _ -> fail line (mnemonic ^ " expects rt, rs, imm"))
  | _, _ when shop_of_name mnemonic <> None -> (
    match ops with
    | [ a; b; c ] -> [ Insn.Shift (Option.get (shop_of_name mnemonic), r a, r b, i c) ]
    | _ -> fail line (mnemonic ^ " expects rd, rt, shamt"))
  | _, [ a; m ] when load_of_name mnemonic <> None ->
    load_store (fun rt d b -> Insn.Load (Option.get (load_of_name mnemonic), rt, d, b))
      (r a) (mem_operand env line m)
  | _, [ a; m ] when store_of_name mnemonic <> None ->
    load_store (fun rt d b -> Insn.Store (Option.get (store_of_name mnemonic), rt, d, b))
      (r a) (mem_operand env line m)
  | "lui", [ a; b ] -> [ Insn.Lui (r a, i b land 0xffff) ]
  | "beq", [ a; b; target ] -> [ Insn.Branch2 (BEQ, r a, r b, branch_off env line pc target) ]
  | "bne", [ a; b; target ] -> [ Insn.Branch2 (BNE, r a, r b, branch_off env line pc target) ]
  | "blez", [ a; target ] -> [ Insn.Branch1 (BLEZ, r a, branch_off env line pc target) ]
  | "bgtz", [ a; target ] -> [ Insn.Branch1 (BGTZ, r a, branch_off env line pc target) ]
  | "bltz", [ a; target ] -> [ Insn.Branch1 (BLTZ, r a, branch_off env line pc target) ]
  | "bgez", [ a; target ] -> [ Insn.Branch1 (BGEZ, r a, branch_off env line pc target) ]
  | "beqz", [ a; target ] -> [ Insn.Branch2 (BEQ, r a, Reg.zero, branch_off env line pc target) ]
  | "bnez", [ a; target ] -> [ Insn.Branch2 (BNE, r a, Reg.zero, branch_off env line pc target) ]
  | "b", [ target ] -> [ Insn.Branch2 (BEQ, Reg.zero, Reg.zero, branch_off env line pc target) ]
  | ("blt" | "bgt" | "ble" | "bge" | "bltu" | "bgtu" | "bleu" | "bgeu"), [ a; b; target ] ->
    let unsigned = String.length mnemonic = 4 in
    let op = if unsigned then Insn.SLTU else Insn.SLT in
    let swapped = mnemonic = "bgt" || mnemonic = "ble" || mnemonic = "bgtu" || mnemonic = "bleu" in
    let x, y = if swapped then (r b, r a) else (r a, r b) in
    let bop : Insn.branch2 =
      if mnemonic = "blt" || mnemonic = "bgt" || mnemonic = "bltu" || mnemonic = "bgtu" then BNE
      else BEQ
    in
    [ Insn.R (op, Reg.at, x, y);
      Insn.Branch2 (bop, Reg.at, Reg.zero, branch_off env line (pc + 4) target) ]
  | "j", [ target ] -> [ Insn.J (imm_or_sym env line target) ]
  | "jal", [ target ] -> [ Insn.Jal (imm_or_sym env line target) ]
  | "jr", [ a ] -> [ Insn.Jr (r a) ]
  | "jalr", [ a ] -> [ Insn.Jalr (Reg.ra, r a) ]
  | "jalr", [ a; b ] -> [ Insn.Jalr (r a, r b) ]
  | "mult", [ a; b ] -> [ Insn.Muldiv (MULT, r a, r b) ]
  | "multu", [ a; b ] -> [ Insn.Muldiv (MULTU, r a, r b) ]
  | "div", [ a; b ] -> [ Insn.Muldiv (DIV, r a, r b) ]
  | "divu", [ a; b ] -> [ Insn.Muldiv (DIVU, r a, r b) ]
  | "mul", [ a; b; c ] -> [ Insn.Muldiv (MULT, r b, r c); Insn.Mflo (r a) ]
  | "divq", [ a; b; c ] -> [ Insn.Muldiv (DIV, r b, r c); Insn.Mflo (r a) ]
  | "rem", [ a; b; c ] -> [ Insn.Muldiv (DIV, r b, r c); Insn.Mfhi (r a) ]
  | "mfhi", [ a ] -> [ Insn.Mfhi (r a) ]
  | "mflo", [ a ] -> [ Insn.Mflo (r a) ]
  | "mthi", [ a ] -> [ Insn.Mthi (r a) ]
  | "mtlo", [ a ] -> [ Insn.Mtlo (r a) ]
  | "syscall", [] -> [ Insn.Syscall ]
  | "break", [ c ] -> [ Insn.Break (i c) ]
  | "break", [] -> [ Insn.Break 0 ]
  | "nop", [] -> [ Insn.Nop ]
  | "li", [ a; v ] -> li_insns (r a) (i v)
  | "la", [ a; s ] -> la_insns (r a) (imm_or_sym env line s)
  | "move", [ a; b ] -> [ Insn.R (ADDU, r a, r b, Reg.zero) ]
  | "not", [ a; b ] -> [ Insn.R (NOR, r a, r b, Reg.zero) ]
  | "neg", [ a; b ] -> [ Insn.R (SUBU, r a, Reg.zero, r b) ]
  | "seq", [ a; b; c ] ->
    [ Insn.R (XOR, r a, r b, r c); Insn.I (SLTIU, r a, r a, 1) ]
  | "sne", [ a; b; c ] ->
    [ Insn.R (XOR, r a, r b, r c); Insn.R (SLTU, r a, Reg.zero, r a) ]
  | m, _ -> fail line ("unknown or malformed instruction: " ^ m)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

type section = Text | Data

let text_base = Ptaint_mem.Layout.text_base
let data_base = Ptaint_mem.Layout.data_base

let assemble source =
  try
    let lines = String.split_on_char '\n' source in
    let located = List.mapi (fun i l -> parse_line (i + 1) l) lines in
    (* Pass 1: layout. *)
    let symbols : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let define line name addr =
      if Hashtbl.mem symbols name then fail line ("duplicate label " ^ name);
      Hashtbl.replace symbols name addr
    in
    let text_pc = ref text_base and data_pc = ref data_base in
    let section = ref Text in
    let here () = match !section with Text -> !text_pc | Data -> !data_pc in
    let advance n = match !section with
      | Text -> text_pc := !text_pc + n
      | Data -> data_pc := !data_pc + n
    in
    let stmt_size line = function
      | Sinsn (m, ops) -> 4 * insn_length line m ops
      | Stext | Sdata -> 0
      | Sword ws -> 4 * List.length ws
      | Shalf hs -> 2 * List.length hs
      | Sbyte bs -> List.length bs
      | Sascii s -> String.length s
      | Sspace n -> n
      | Salign _ -> 0 (* handled specially *)
    in
    List.iter
      (fun { line; labels; stmt } ->
        (match stmt with
         | Some (Salign p) ->
           let a = 1 lsl p in
           let cur = here () in
           let aligned = (cur + a - 1) land lnot (a - 1) in
           advance (aligned - cur)
         | Some Stext -> section := Text
         | Some Sdata -> section := Data
         | _ -> ());
        List.iter (fun l -> define line l (here ())) labels;
        match stmt with
        | Some (Salign _) | Some Stext | Some Sdata | None -> ()
        | Some s -> advance (stmt_size line s))
      located;
    let data_size = !data_pc - data_base in
    (* Pass 2: emit. *)
    let resolve line s =
      match Hashtbl.find_opt symbols s with
      | Some a -> a
      | None -> fail line ("undefined symbol " ^ s)
    in
    let env = { resolve } in
    let insns = ref [] and insn_lines = ref [] and n_insns = ref 0 in
    let data = Bytes.make data_size '\000' in
    let emit_insn line is =
      List.iter
        (fun i ->
          insns := i :: !insns;
          insn_lines := line :: !insn_lines;
          incr n_insns)
        is
    in
    let emit_data_byte off b = Bytes.set data off (Char.chr (b land 0xff)) in
    let emit_data_word off w =
      for k = 0 to 3 do
        emit_data_byte (off + k) ((w lsr (8 * k)) land 0xff)
      done
    in
    text_pc := text_base;
    data_pc := data_base;
    section := Text;
    List.iter
      (fun { line; labels = _; stmt } ->
        match stmt with
        | None -> ()
        | Some s -> (
          match s with
          | Stext -> section := Text
          | Sdata -> section := Data
          | Salign p ->
            let a = 1 lsl p in
            let cur = here () in
            advance (((cur + a - 1) land lnot (a - 1)) - cur)
          | Sinsn (m, ops) ->
            if !section <> Text then fail line "instruction outside .text";
            let expected = 4 * insn_length line m ops in
            let is = expand env line !text_pc m ops in
            if 4 * List.length is <> expected then fail line "internal: expansion size mismatch";
            emit_insn line is;
            text_pc := !text_pc + expected
          | Sword ws ->
            if !section <> Data then fail line "data directive outside .data";
            List.iter
              (fun w ->
                let v = match w with Wint n -> n | Wsym s -> resolve line s in
                emit_data_word (!data_pc - data_base) v;
                advance 4)
              ws
          | Shalf hs ->
            if !section <> Data then fail line "data directive outside .data";
            List.iter
              (fun h ->
                emit_data_byte (!data_pc - data_base) (h land 0xff);
                emit_data_byte (!data_pc - data_base + 1) ((h lsr 8) land 0xff);
                advance 2)
              hs
          | Sbyte bs ->
            if !section <> Data then fail line "data directive outside .data";
            List.iter
              (fun b ->
                emit_data_byte (!data_pc - data_base) b;
                advance 1)
              bs
          | Sascii str ->
            if !section <> Data then fail line "data directive outside .data";
            String.iteri (fun k c -> emit_data_byte (!data_pc - data_base + k) (Char.code c)) str;
            advance (String.length str)
          | Sspace n ->
            if !section <> Data then fail line "data directive outside .data";
            advance n))
      located;
    let entry =
      match (Hashtbl.find_opt symbols "_start", Hashtbl.find_opt symbols "main") with
      | Some a, _ -> a
      | None, Some a -> a
      | None, None -> text_base
    in
    Ok
      { Program.insns = Array.of_list (List.rev !insns);
        text_base;
        data = Bytes.to_string data;
        data_base;
        symbols = Hashtbl.fold (fun k v acc -> (k, v) :: acc) symbols [] |> List.sort compare;
        entry;
        lines = Array.of_list (List.rev !insn_lines) }
  with Asm_error e -> Error e

let assemble_exn source =
  match assemble source with
  | Ok p -> p
  | Error e -> raise (Asm_error e)
