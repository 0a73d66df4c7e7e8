(* Assembler, loader and whole-system (Sim) tests. *)

open Ptaint_isa
open Ptaint_asm

let assemble src =
  match Assembler.assemble src with
  | Ok p -> p
  | Error e -> Alcotest.failf "assembly failed: %a" Assembler.pp_error e

let expect_error src =
  match Assembler.assemble src with
  | Ok _ -> Alcotest.fail "expected assembly error"
  | Error _ -> ()

(* --- Lexer --- *)

let test_lexer () =
  (match Lexer.tokenize "  lw $t0, 4($sp)  # comment" with
   | Ok [ Ident "lw"; Register 8; Comma; Int 4; Lparen; Register 29; Rparen ] -> ()
   | Ok ts -> Alcotest.failf "unexpected tokens (%d)" (List.length ts)
   | Error e -> Alcotest.fail e);
  (match Lexer.tokenize {|.asciiz "a\n\x41b"|} with
   | Ok [ Ident ".asciiz"; Str "a\nAb" ] -> ()
   | _ -> Alcotest.fail "string escapes");
  (match Lexer.tokenize "li $a0, 'x'" with
   | Ok [ Ident "li"; Register 4; Comma; Int 120 ] -> ()
   | _ -> Alcotest.fail "char literal");
  (match Lexer.tokenize "li $a0, -0x10" with
   | Ok [ Ident "li"; Register 4; Comma; Int (-16) ] -> ()
   | _ -> Alcotest.fail "negative hex");
  match Lexer.tokenize "mov $zz" with Error _ -> () | Ok _ -> Alcotest.fail "bad register"

(* --- Assembler --- *)

let test_basic_program () =
  let p =
    assemble
      {|
        .text
main:   addiu $sp, $sp, -8
        li $v0, 42
        jr $ra
        .data
msg:    .asciiz "hi"
val:    .word 7, msg
|}
  in
  Alcotest.(check int) "entry at main" p.Program.text_base p.Program.entry;
  Alcotest.(check int) "3 instructions" 3 (Array.length p.Program.insns);
  (match p.Program.insns.(0) with
   | Insn.I (ADDIU, 29, 29, -8) -> ()
   | i -> Alcotest.failf "insn 0: %s" (Insn.to_string i));
  let msg = Program.symbol_exn p "msg" in
  Alcotest.(check int) "msg at data base" p.Program.data_base msg;
  Alcotest.(check string) "string bytes" "hi\000" (String.sub p.Program.data 0 3);
  (* .word initialiser with a label reference *)
  let word_off = Program.symbol_exn p "val" - p.Program.data_base in
  let word_at off =
    Char.code p.Program.data.[off]
    lor (Char.code p.Program.data.[off + 1] lsl 8)
    lor (Char.code p.Program.data.[off + 2] lsl 16)
    lor (Char.code p.Program.data.[off + 3] lsl 24)
  in
  Alcotest.(check int) "word 7" 7 (word_at word_off);
  Alcotest.(check int) "word msg" msg (word_at (word_off + 4))

let test_li_expansion () =
  let p = assemble ".text\nli $t0, 5\nli $t1, 0x12340000\nli $t2, 0x12345678\n" in
  Alcotest.(check int) "lengths 1+1+2" 4 (Array.length p.Program.insns);
  (match p.Program.insns.(0) with
   | Insn.I (ADDIU, 8, 0, 5) -> ()
   | i -> Alcotest.failf "small li: %s" (Insn.to_string i));
  match (p.Program.insns.(2), p.Program.insns.(3)) with
  | Insn.Lui (10, 0x1234), Insn.I (ORI, 10, 10, 0x5678) -> ()
  | a, b -> Alcotest.failf "big li: %s / %s" (Insn.to_string a) (Insn.to_string b)

let test_branch_pseudos () =
  let p =
    assemble
      {|
        .text
loop:   blt $t0, $t1, loop
        bge $t0, $t1, after
after:  beqz $t0, loop
        b loop
|}
  in
  (match p.Program.insns.(0) with
   | Insn.R (SLT, 1, 8, 9) -> ()
   | i -> Alcotest.failf "blt slt: %s" (Insn.to_string i));
  (match p.Program.insns.(1) with
   | Insn.Branch2 (BNE, 1, 0, off) -> Alcotest.(check int) "back edge" (-2) off
   | i -> Alcotest.failf "blt branch: %s" (Insn.to_string i));
  match p.Program.insns.(3) with
  | Insn.Branch2 (BEQ, 1, 0, 0) -> ()
  | i -> Alcotest.failf "bge fallthrough: %s" (Insn.to_string i)

let test_la_lw_symbol () =
  let p = assemble ".text\nla $a0, buf\nlw $t0, buf\n.data\nbuf: .space 8\n" in
  let buf = Program.symbol_exn p "buf" in
  (match (p.Program.insns.(0), p.Program.insns.(1)) with
   | Insn.Lui (4, hi), Insn.I (ORI, 4, 4, lo) ->
     Alcotest.(check int) "la resolves" buf ((hi lsl 16) lor lo)
   | _ -> Alcotest.fail "la shape");
  match (p.Program.insns.(2), p.Program.insns.(3)) with
  | Insn.Lui (1, hi), Insn.Load (LW, 8, lo, 1) ->
    Alcotest.(check int) "lw sym resolves" buf (Word.of_int ((hi lsl 16) + lo))
  | a, b -> Alcotest.failf "lw sym shape: %s / %s" (Insn.to_string a) (Insn.to_string b)

let test_alignment () =
  let p = assemble ".data\n.byte 1\n.align 2\nw: .word 2\n" in
  Alcotest.(check int) "aligned" (p.Program.data_base + 4) (Program.symbol_exn p "w")

let test_errors () =
  expect_error ".text\nfoo $t0\n";
  expect_error ".text\nadd $t0, $t1\n";
  expect_error ".text\nj nowhere\n";
  expect_error ".text\nx: nop\nx: nop\n";
  expect_error ".text\n.word 1\n";
  expect_error ".data\nadd $t0, $t1, $t2\n"

(* malformed-input corpus: every rejection must be the typed error
   with the right 1-based source line, so campaign consumers can
   classify and report without string-matching exception text *)
let test_error_positions () =
  let corpus =
    [ (".text\nfoo $t0\n", 2, "unknown");
      (".text\nnop\nadd $t0, $t1\n", 3, "register");
      (".text\nj nowhere\n", 2, "undefined");
      (".text\nx: nop\nnop\nx: nop\n", 4, "duplicate");
      (".data\nbuf: .space -4\n", 2, "negative");
      (".data\nbuf: .space nonsense\n", 2, "");
      (".text\nlw $t0, 4(nonsense)\n", 2, "") ]
  in
  List.iter
    (fun (src, line, needle) ->
      match Assembler.assemble src with
      | Ok _ -> Alcotest.failf "corpus entry must be rejected: %S" src
      | Error e ->
        Alcotest.(check int) (Printf.sprintf "line of %S" src) line e.Assembler.line;
        let msg = String.lowercase_ascii e.Assembler.message in
        if needle <> "" then
          Alcotest.(check bool)
            (Printf.sprintf "message %S mentions %S" e.Assembler.message needle)
            true
            (let n = String.length needle in
             let rec go i =
               i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1))
             in
             go 0))
    corpus;
  (* assemble_exn raises the same information as a typed exception *)
  (match Assembler.assemble_exn ".text\nnop\nfoo\n" with
   | _ -> Alcotest.fail "assemble_exn must raise on malformed input"
   | exception Assembler.Asm_error { line; _ } ->
     Alcotest.(check int) "exception carries the line" 3 line);
  (* the loader's own validation is typed too: an argv block that
     cannot fit the stack is a Loader.Error naming the field *)
  let p = assemble ".text\nmain: jr $ra\n" in
  match Loader.load ~argv:[ String.make 2_000_000 'A' ] p with
  | _ -> Alcotest.fail "oversized argv must be rejected"
  | exception Loader.Error { where; _ } ->
    Alcotest.(check string) "names the offending field" "arguments" where

let test_disassemble_listing () =
  let p = assemble ".text\nnop\njr $ra\n" in
  let listing = Program.disassemble p in
  Alcotest.(check bool) "has addresses" true
    (String.length listing > 0 && listing.[0] = '0')

(* --- Loader --- *)

let test_loader_argv () =
  let p = assemble ".text\nnop\n" in
  let image = Loader.load ~argv:[ "prog"; "-g"; "123" ] p in
  let mem = image.Loader.mem in
  let sp = image.Loader.initial_sp in
  let argc = Ptaint_taint.Tword.value (Ptaint_mem.Memory.load_word mem sp) in
  Alcotest.(check int) "argc" 3 argc;
  let argv1 = Ptaint_taint.Tword.value (Ptaint_mem.Memory.load_word mem (sp + 8)) in
  Alcotest.(check string) "argv[1]" "-g" (Ptaint_mem.Memory.read_cstring mem argv1);
  (* argv strings are tainted (command line is external input) *)
  Alcotest.(check int) "argv bytes tainted" 2 (Ptaint_mem.Memory.tainted_in_range mem argv1 2);
  (* the argv pointer array itself is not *)
  Alcotest.(check bool) "argv array untainted" false
    (Ptaint_taint.Tword.is_tainted (Ptaint_mem.Memory.load_word mem (sp + 8)))

let test_loader_untainted_argv_policy () =
  let p = assemble ".text\nnop\n" in
  let image = Loader.load ~argv:[ "prog"; "xyz" ] ~sources:Ptaint_os.Sources.none p in
  let sp = image.Loader.initial_sp in
  let argv1 = Ptaint_taint.Tword.value (Ptaint_mem.Memory.load_word image.Loader.mem (sp + 8)) in
  Alcotest.(check int) "no taint" 0 (Ptaint_mem.Memory.tainted_in_range image.Loader.mem argv1 3)

(* --- Whole-system smoke tests --- *)

let run_asm ?config source = Ptaint_sim.Sim.run ?config (assemble source)

let test_sim_hello () =
  let r =
    run_asm
      {|
        .text
main:   li $v0, 3          # sys_write
        li $a0, 1          # stdout
        la $a1, msg
        li $a2, 6
        syscall
        li $v0, 1          # sys_exit
        li $a0, 0
        syscall
        .data
msg:    .ascii "hello\n"
|}
  in
  (match r.Ptaint_sim.Sim.outcome with
   | Ptaint_sim.Sim.Exited 0 -> ()
   | o -> Alcotest.failf "outcome: %a" Ptaint_sim.Sim.pp_outcome o);
  Alcotest.(check string) "stdout" "hello\n" r.Ptaint_sim.Sim.stdout

let echo_asm =
  {|
        .text
main:   li $v0, 2          # sys_read
        li $a0, 0          # stdin
        la $a1, buf
        li $a2, 64
        syscall
        move $a2, $v0      # echo as many bytes as read
        li $v0, 3
        li $a0, 1
        la $a1, buf
        syscall
        li $v0, 1
        li $a0, 0
        syscall
        .data
buf:    .space 64
|}

let test_sim_echo_taints () =
  let config = { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.stdin = "attack" } in
  let r = run_asm ~config echo_asm in
  (match r.Ptaint_sim.Sim.outcome with
   | Ptaint_sim.Sim.Exited 0 -> ()
   | o -> Alcotest.failf "outcome: %a" Ptaint_sim.Sim.pp_outcome o);
  Alcotest.(check string) "echoed" "attack" r.Ptaint_sim.Sim.stdout;
  Alcotest.(check int) "input bytes counted" 6 r.Ptaint_sim.Sim.input_bytes;
  (* the read buffer is tainted in memory *)
  let buf = Program.symbol_exn r.Ptaint_sim.Sim.image.Loader.program "buf" in
  Alcotest.(check int) "buffer tainted" 6
    (Ptaint_mem.Memory.tainted_in_range r.Ptaint_sim.Sim.image.Loader.mem buf 6)

let deref_input_asm =
  (* Reads 4 bytes from stdin, uses them as a pointer — the minimal
     pointer-taintedness attack. *)
  {|
        .text
main:   li $v0, 2
        li $a0, 0
        la $a1, buf
        li $a2, 4
        syscall
        lw $t0, buf        # load tainted word
        lw $t1, 0($t0)     # dereference it -> alert
        li $v0, 1
        li $a0, 0
        syscall
        .data
buf:    .space 4
|}

let test_sim_detects_tainted_deref () =
  let config = { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.stdin = "aaaa" } in
  let r = run_asm ~config deref_input_asm in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Alert a ->
    Alcotest.(check bool) "load detector" true (a.Ptaint_cpu.Machine.kind = Ptaint_cpu.Machine.Load_address);
    Alcotest.(check int) "tainted value is 'aaaa'" 0x61616161
      (Ptaint_taint.Tword.value a.Ptaint_cpu.Machine.reg_value)
  | o -> Alcotest.failf "expected alert, got %a" Ptaint_sim.Sim.pp_outcome o

let test_sim_unprotected_crashes () =
  let config =
    { Ptaint_sim.Sim.default_config with
      Ptaint_sim.Sim.policy = Ptaint_cpu.Policy.unprotected;
      stdin = "aaaa" }
  in
  let r = run_asm ~config deref_input_asm in
  match r.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Fault _ -> ()
  | o -> Alcotest.failf "expected fault, got %a" Ptaint_sim.Sim.pp_outcome o

let test_sim_network_session () =
  let r =
    run_asm
      ~config:({ Ptaint_sim.Sim.default_config with
                 Ptaint_sim.Sim.sessions = [ [ "PING" ] ] })
      {|
        .text
main:   li $v0, 9          # socket
        syscall
        move $s0, $v0
        li $v0, 10         # accept
        move $a0, $s0
        syscall
        move $s1, $v0
        li $v0, 7          # recv
        move $a0, $s1
        la $a1, buf
        li $a2, 64
        syscall
        li $v0, 8          # send
        move $a0, $s1
        la $a1, pong
        li $a2, 4
        syscall
        li $v0, 1
        li $a0, 0
        syscall
        .data
buf:    .space 64
pong:   .ascii "PONG"
|}
  in
  (match r.Ptaint_sim.Sim.outcome with
   | Ptaint_sim.Sim.Exited 0 -> ()
   | o -> Alcotest.failf "outcome: %a" Ptaint_sim.Sim.pp_outcome o);
  Alcotest.(check (list string)) "sent" [ "PONG" ] r.Ptaint_sim.Sim.net_sent;
  (* network data is tainted *)
  let buf = Program.symbol_exn r.Ptaint_sim.Sim.image.Loader.program "buf" in
  Alcotest.(check int) "recv tainted" 4
    (Ptaint_mem.Memory.tainted_in_range r.Ptaint_sim.Sim.image.Loader.mem buf 4)

let test_sim_timing () =
  let config = { Ptaint_sim.Sim.default_config with
                 Ptaint_sim.Sim.timing = true;
                 stdin = "hi" } in
  let r = run_asm ~config echo_asm in
  match r.Ptaint_sim.Sim.cycles with
  | Some c -> Alcotest.(check bool) "cycles > instructions" true (c > r.Ptaint_sim.Sim.instructions)
  | None -> Alcotest.fail "expected cycle count"

(* --- Round-trip property: assemble → encode → decode → same --- *)

let prop_text_encodes =
  QCheck2.Test.make ~name:"assembled text encodes and decodes" ~count:50
    QCheck2.Gen.(int_range 1 20)
    (fun n ->
      let body =
        List.init n (fun i ->
            Printf.sprintf "add $t%d, $t%d, $t%d" (i mod 8) ((i + 1) mod 8) ((i + 2) mod 8))
        |> String.concat "\n"
      in
      let p = assemble (".text\n" ^ body ^ "\njr $ra\n") in
      Array.for_all
        (fun i ->
          match Encode.decode ~pc:0x400000 (Encode.encode i) with
          | Ok i' -> Insn.equal i i'
          | Error _ -> false)
        p.Program.insns)

let () =
  Alcotest.run "asm"
    [ ("lexer", [ Alcotest.test_case "tokens" `Quick test_lexer ]);
      ( "assembler",
        [ Alcotest.test_case "basic program" `Quick test_basic_program;
          Alcotest.test_case "li expansion" `Quick test_li_expansion;
          Alcotest.test_case "branch pseudos" `Quick test_branch_pseudos;
          Alcotest.test_case "la / lw symbol" `Quick test_la_lw_symbol;
          Alcotest.test_case "alignment" `Quick test_alignment;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "malformed corpus: typed positions" `Quick
            test_error_positions;
          Alcotest.test_case "listing" `Quick test_disassemble_listing ] );
      ( "loader",
        [ Alcotest.test_case "argv layout + taint" `Quick test_loader_argv;
          Alcotest.test_case "source policy" `Quick test_loader_untainted_argv_policy ] );
      ( "sim",
        [ Alcotest.test_case "hello world" `Quick test_sim_hello;
          Alcotest.test_case "echo taints input" `Quick test_sim_echo_taints;
          Alcotest.test_case "tainted deref detected" `Quick test_sim_detects_tainted_deref;
          Alcotest.test_case "unprotected crashes" `Quick test_sim_unprotected_crashes;
          Alcotest.test_case "network session" `Quick test_sim_network_session;
          Alcotest.test_case "timing mode" `Quick test_sim_timing ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_text_encodes ]) ]
