(* Differential testing of the bulk engine.

   [Sim.finish] routes untraced sessions through [Machine.run] — hot
   blocks as translated superblock chains, cold and partial blocks on
   [step_core] — while [Sim.finish_per_step] drives the same session
   strictly one [Machine.step] at a time.  The two engines must be
   observationally identical: same outcome, same instruction count,
   same register file (values *and* taint), same memory (both planes
   of every mapped page), same access statistics.  This suite checks
   that on random compiled programs, on every attack scenario in the
   catalogue under every coverage policy (cold, and again on a warm
   shared tier), on handwritten guests that cross
   clean -> tainted -> clean so both superblock variants execute, and
   on random raw loop bodies over every opcode under every policy. *)

open Ptaint_taint
module Sim = Ptaint_sim.Sim
module Machine = Ptaint_cpu.Machine
module Regfile = Ptaint_cpu.Regfile
module Memory = Ptaint_mem.Memory
module Scenario = Ptaint_attacks.Scenario
module Catalog = Ptaint_attacks.Catalog
module Campaign = Ptaint_campaign.Campaign
module Job = Ptaint_campaign.Job
module Gen = Ptaint_gen.Gen

(* --- result comparison ---------------------------------------------- *)

let outcome_str o = Format.asprintf "%a" Sim.pp_outcome o

let reg_bits m =
  List.init Regfile.slots (fun i -> Tword.to_bits (Regfile.slot m.Machine.regs i))

(* Both memory planes, byte for byte: every mapped page's words read
   as packed Twords (value bits plus one taint bit per byte) through
   the uncounted accessors, so the comparison leaves the access stats
   it is about to compare untouched. *)
let check_memory ctx mb mr =
  let pages = Memory.mapped_pages mb in
  if pages <> Memory.mapped_pages mr then Alcotest.failf "%s: mapped pages differ" ctx;
  let page = Ptaint_mem.Layout.page_bytes in
  List.iter
    (fun p ->
      for w = 0 to (page / 4) - 1 do
        let addr = (p * page) + (4 * w) in
        let a = Memory.peek_word mb addr and b = Memory.peek_word mr addr in
        if Tword.to_bits a <> Tword.to_bits b then
          Alcotest.failf "%s: memory word 0x%08x differs — bulk %a, per-step %a" ctx addr
            Tword.pp a Tword.pp b
      done)
    pages

let check_agree ctx (bulk : Sim.result) (ref_ : Sim.result) =
  let chk name pp a b =
    if a <> b then
      Alcotest.failf "%s: %s differs — bulk %s, per-step %s" ctx name (pp a) (pp b)
  in
  let si = string_of_int in
  chk "outcome" Fun.id (outcome_str bulk.outcome) (outcome_str ref_.outcome);
  chk "instructions" si bulk.instructions ref_.instructions;
  chk "stdout" (Printf.sprintf "%S") bulk.stdout ref_.stdout;
  chk "net_sent" (String.concat "|") bulk.net_sent ref_.net_sent;
  chk "execs" (String.concat "|") bulk.execs ref_.execs;
  chk "final_uid" si bulk.final_uid ref_.final_uid;
  chk "input_bytes" si bulk.input_bytes ref_.input_bytes;
  chk "syscalls" si bulk.syscalls ref_.syscalls;
  let mb = bulk.machine and mr = ref_.machine in
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "%s: register %s differs — bulk %x, per-step %x" ctx
          (Regfile.slot_name i) a b)
    (List.combine (reg_bits mb) (reg_bits mr));
  chk "machine icount" si mb.Machine.icount mr.Machine.icount;
  chk "tainted registers" si
    (Regfile.tainted_count mb.Machine.regs) (Regfile.tainted_count mr.Machine.regs);
  chk "tainted bytes" si
    (Memory.tainted_bytes mb.Machine.mem) (Memory.tainted_bytes mr.Machine.mem);
  check_memory ctx mb.Machine.mem mr.Machine.mem;
  let sb = Memory.stats mb.Machine.mem and sr = Memory.stats mr.Machine.mem in
  chk "loads" si sb.Memory.loads sr.Memory.loads;
  chk "stores" si sb.Memory.stores sr.Memory.stores;
  chk "tainted loads" si sb.Memory.tainted_loads sr.Memory.tainted_loads;
  chk "tainted stores" si sb.Memory.tainted_stores sr.Memory.tainted_stores;
  chk "mapped bytes" si sb.Memory.mapped_bytes sr.Memory.mapped_bytes

(* Run one program under one config through both engines.  Also
   asserts the routing itself: the bulk run must actually have
   dispatched blocks, and the reference run must not have. *)
let differential ctx config program =
  let bulk = Sim.finish (Sim.boot ~config program) in
  let ref_ = Sim.finish_per_step (Sim.boot ~config program) in
  if bulk.instructions > 0 && bulk.machine.Machine.blocks_run = 0 then
    Alcotest.failf "%s: finish did not route through the block engine" ctx;
  if ref_.machine.Machine.blocks_run <> 0 then
    Alcotest.failf "%s: finish_per_step dispatched blocks" ctx;
  check_agree ctx bulk ref_;
  bulk

(* --- random compiled programs --------------------------------------- *)

(* Random Mini-C expression trees (same shape as the compiler fuzz
   suite, minus the OCaml reference evaluator: here the per-step
   engine *is* the reference).  Division and shifts keep constant
   right-hand sides so neither engine hits undefined guest behaviour;
   control flow comes from ?:/&&/|| which compile to branches, so the
   block engine sees real multi-block programs, not one straight
   line. *)
type expr =
  | Num of int
  | Var of int (* 0..2 -> a, b, c *)
  | Bin of string * expr * expr
  | Un of string * expr
  | Cond of expr * expr * expr

let rec render = function
  | Num n -> string_of_int n
  | Var i -> String.make 1 (Char.chr (Char.code 'a' + i))
  | Un (op, e) -> Printf.sprintf "(%s %s)" op (render e)
  | Cond (c, t, f) -> Printf.sprintf "(%s ? %s : %s)" (render c) (render t) (render f)
  | Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (render a) op (render b)

let expr_gen =
  let open QCheck2.Gen in
  let leaf =
    oneof [ (int_range (-100) 100 >|= fun n -> Num n); (int_range 0 2 >|= fun i -> Var i) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (2, leaf);
            ( 5,
              let* op =
                oneofl [ "+"; "-"; "*"; "&"; "|"; "^"; "<"; ">"; "<="; ">="; "=="; "!=" ]
              in
              let* a = self (depth - 1) in
              let* b = self (depth - 1) in
              return (Bin (op, a, b)) );
            ( 1,
              let* op = oneofl [ "/"; "%" ] in
              let* a = self (depth - 1) in
              let* d = oneofl [ -7; -3; 2; 3; 5; 17 ] in
              return (Bin (op, a, Num d)) );
            ( 1,
              let* op = oneofl [ "<<"; ">>" ] in
              let* a = self (depth - 1) in
              let* s = int_range 0 31 in
              return (Bin (op, a, Num s)) );
            ( 1,
              let* op = oneofl [ "&&"; "||" ] in
              let* a = self (depth - 1) in
              let* b = self (depth - 1) in
              return (Bin (op, a, b)) );
            (1, self (depth - 1) >|= fun e -> Un ("-", e));
            (1, self (depth - 1) >|= fun e -> Un ("~", e));
            (1, self (depth - 1) >|= fun e -> Un ("!", e));
            ( 1,
              let* c = self (depth - 1) in
              let* t = self (depth - 1) in
              let* f = self (depth - 1) in
              return (Cond (c, t, f)) ) ])
    4

let prop_random_programs =
  QCheck2.Test.make ~count:60 ~name:"bulk engine = per-step engine on random programs"
    ~print:(fun (e, va, vb) -> Printf.sprintf "a=%d b=%d expr=%s" va vb (render e))
    QCheck2.Gen.(triple expr_gen (int_range (-50) 50) (int_range (-50) 50))
    (fun (e, va, vb) ->
      let source =
        Printf.sprintf
          "int main(void) { int a = %d; int b = %d; int c = 13; printf(\"%%d\", %s); return 0; }"
          va vb (render e)
      in
      let program = Ptaint_runtime.Runtime.compile source in
      ignore (differential (render e) Sim.Config.default program);
      true)

(* --- the attack catalogue, every scenario x case x policy ------------ *)

let test_catalog_differential () =
  List.iter
    (fun (s : Scenario.t) ->
      let program = s.build () in
      List.iter
        (fun (c : Scenario.case) ->
          List.iter
            (fun (pname, policy) ->
              let config = { (c.config program) with Sim.policy; obs = false } in
              let ctx = Printf.sprintf "%s/%s/%s" s.name c.Scenario.case_name pname in
              ignore (differential ctx config program))
            Scenario.coverage_policies)
        s.cases)
    Catalog.all

(* --- the attack catalogue again, on a warm shared tier --------------- *)

(* A cold [Sim.boot] sends every block entered fewer than
   [Superblock.threshold] times through [step_core] on both sides —
   most alert and fault sites included.  Here each case first runs
   [threshold] times through one prepared image, which leaves every
   block a run dispatches promoted in the image's shared tier; one
   more run is then diffed against the per-step engine, and must have
   been carried by the compiled chains with nothing left to promote. *)
let test_catalog_warm_tier () =
  List.iter
    (fun (s : Scenario.t) ->
      let program = s.build () in
      List.iter
        (fun (c : Scenario.case) ->
          let tpl = Sim.prepare ~config:(c.config program) program in
          List.iter
            (fun (pname, policy) ->
              let config = { (c.config program) with Sim.policy; obs = false } in
              let ctx = Printf.sprintf "%s/%s/%s warm" s.name c.Scenario.case_name pname in
              for _ = 1 to Ptaint_cpu.Superblock.threshold do
                ignore (Sim.run_template ~config tpl)
              done;
              let warm = Sim.finish (Sim.boot_template ~config tpl) in
              check_agree ctx warm (Sim.finish_per_step (Sim.boot_template ~config tpl));
              let m = warm.machine in
              if m.Machine.sb_promoted <> 0 || m.Machine.chain_hits = 0 then
                Alcotest.failf "%s: the tier did not carry the run (%d promoted, %d chain hits)"
                  ctx m.Machine.sb_promoted m.Machine.chain_hits)
            Scenario.coverage_policies)
        s.cases)
    Catalog.all

(* --- clean -> tainted -> clean -------------------------------------- *)

(* Starts with zero live taint (only stdin is a source, argv is not),
   spins a while on the clean fast path, reads four tainted bytes,
   spins on them with live taint, then scrubs both the buffer and the
   registers and spins again — so one run exercises the clean
   variant, the full variant, and both switch directions.  All three
   spins are hot enough to be translated. *)
let clean_taint_clean_asm =
  {|
        .text
main:   li $t1, 200
warm:   addiu $t1, $t1, -1      # clean spin: no taint anywhere yet
        bne $t1, $zero, warm
        li $v0, 2               # sys_read
        li $a0, 0               # stdin
        la $a1, buf
        li $a2, 4
        syscall
        lw $t0, 0($a1)
        li $t1, 200
hot:    addu $t2, $t2, $t0      # tainted spin: taint through the ALU
        addiu $t1, $t1, -1
        bne $t1, $zero, hot
        sw $t2, 4($a1)
        sw $zero, 0($a1)        # scrub memory taint...
        sw $zero, 4($a1)
        li $t0, 0               # ...and register taint
        li $t2, 0
        li $t1, 200
cool:   addiu $t1, $t1, -1      # clean again
        bne $t1, $zero, cool
        li $v0, 1               # sys_exit
        li $a0, 0
        syscall
        .data
buf:    .space 8
|}

let test_clean_taint_clean () =
  let program =
    match Ptaint_asm.Assembler.assemble clean_taint_clean_asm with
    | Ok p -> p
    | Error e -> Alcotest.failf "assembly failed: %a" Ptaint_asm.Assembler.pp_error e
  in
  let config =
    Sim.Config.(default |> with_sources { Ptaint_os.Sources.none with stdin = true } |> with_stdin "ABCD")
  in
  let bulk = differential "clean-taint-clean" config program in
  let m = bulk.machine in
  (match bulk.outcome with
   | Sim.Exited 0 -> ()
   | o -> Alcotest.failf "outcome: %a" Sim.pp_outcome o);
  (* Each spin runs at most [threshold - 1] passes on [step_core]
     before its translation takes over, and the straight-line code is
     a handful of blocks, so 4 x [threshold] blocks on either side of
     the live-taint test can only come from the translated variants. *)
  let floor = 4 * Ptaint_cpu.Superblock.threshold in
  Alcotest.(check int) "all three spins translated" 3 m.Machine.sb_promoted;
  Alcotest.(check bool) "the clean variant ran" true (m.Machine.clean_blocks > floor);
  Alcotest.(check bool) "the full variant ran" true
    (m.Machine.blocks_run - m.Machine.clean_blocks > floor);
  Alcotest.(check int) "memory scrubbed" 0 (Memory.tainted_bytes m.Machine.mem);
  Alcotest.(check int) "registers scrubbed" 0 (Regfile.tainted_count m.Machine.regs)

(* --- clean variant over tainted memory -------------------------------- *)

(* The clean variant is keyed on register taint alone, so it must run
   correctly while memory holds taint.  The guest's first act reads 16
   tainted stdin bytes into [keep], which nothing overwrites: every
   block after that syscall runs with live memory taint.  Each outer
   pass re-taints [victim] and overwrites most of it with [sw]/[sh]/[sb]
   from clean registers, spins a hot inner loop of clean word, half
   and byte loads and stores, then loads tainted elements of [keep]
   partway through a block and as the first load of two more blocks
   (word, half, byte), scrubbing the registers after each. *)
let clean_over_tainted_asm =
  {|
        .text
main:   li $v0, 2               # sys_read: tainted bytes that stay put
        li $a0, 0
        la $a1, keep
        li $a2, 16
        syscall
        li $t9, 40
outer:  li $v0, 2               # re-taint the victim bytes
        li $a0, 0
        la $a1, victim
        li $a2, 8
        syscall
        la $s0, victim          # clean stores over tainted bytes
        li $t0, 0x1234
        sw $t0, 0($s0)
        sh $t0, 4($s0)
        sb $t0, 6($s0)          # victim[7] keeps its taint
        la $s1, data
        li $t1, 30
inner:  lw $t2, 0($s1)          # clean loads: word, halves, bytes
        lh $t3, 4($s1)
        lhu $t4, 6($s1)
        lb $t5, 8($s1)
        lbu $t6, 9($s1)
        addu $t7, $t2, $t3
        addu $t7, $t7, $t4
        addu $t7, $t7, $t5
        addu $t7, $t7, $t6
        sw $t7, 12($s1)         # clean stores over clean bytes
        sh $t7, 16($s1)
        sb $t7, 18($s1)
        addiu $t1, $t1, -1
        bne $t1, $zero, inner
        la $s2, keep
        addiu $t8, $t8, 1
        lw $t2, 0($s2)          # tainted word partway through a block
        addu $t3, $t2, $t8      # the rest of the block runs full
        li $t2, 0
        li $t3, 0
        j half
half:   lh $t4, 6($s2)          # tainted half
        li $t4, 0
        j byte
byte:   lbu $t5, 9($s2)         # tainted byte
        li $t5, 0
        addiu $t9, $t9, -1
        bgtz $t9, outer
        li $v0, 1
        li $a0, 0
        syscall
        .data
data:   .word 0x80018002, 0x8003fffe, 0x000081ff, 0, 0
keep:   .space 16
victim: .space 8
|}

let test_clean_over_tainted_memory () =
  let program =
    match Ptaint_asm.Assembler.assemble clean_over_tainted_asm with
    | Ok p -> p
    | Error e -> Alcotest.failf "assembly failed: %a" Ptaint_asm.Assembler.pp_error e
  in
  let floor = 4 * Ptaint_cpu.Superblock.threshold in
  List.iter
    (fun label ->
      let config =
        Sim.Config.(
          default
          |> with_policy_label label
          |> with_sources { Ptaint_os.Sources.none with stdin = true }
          |> with_stdin (String.init (16 + (40 * 8)) (fun i -> Char.chr (65 + (i mod 26)))))
      in
      let ctx = "clean-over-tainted/" ^ label in
      let bulk = differential ctx config program in
      let m = bulk.machine in
      (match bulk.outcome with
       | Sim.Exited 0 -> ()
       | o -> Alcotest.failf "%s: outcome %a" ctx Sim.pp_outcome o);
      let chk name b = Alcotest.(check bool) (ctx ^ ": " ^ name) true b in
      chk "memory taint stays live" (Memory.tainted_bytes m.Machine.mem > 0);
      (* only the two blocks before the first read precede the live
         memory taint, so this many clean blocks ran with it *)
      chk "the clean variant ran over tainted memory" (m.Machine.clean_blocks > floor);
      if label = "baseline" then
        (* no tracking: tainted loads land masked on the clean chain *)
        Alcotest.(check int) (ctx ^ ": every block ran clean") m.Machine.blocks_run
          m.Machine.clean_blocks
      else begin
        chk "tainted loads deoptimized" (m.Machine.sb_deopts > 0);
        chk "some blocks did not run entirely clean"
          (m.Machine.blocks_run > m.Machine.clean_blocks)
      end)
    [ "full"; "control-only"; "none"; "baseline" ]

(* --- superblock chains ---------------------------------------------- *)

(* A nested direct-branch loop: the inner body self-chains through its
   taken slot, the outer tail chains back across two blocks.  Hot
   enough (5000 inner iterations) that every loop block is promoted
   and almost every crossing stays inside a compiled chain — the
   differential proves the chained execution is still bit-exact, the
   counter checks prove the chains actually carried the run. *)
let chain_loop_asm =
  {|
        .text
main:   li $t0, 100
outer:  li $t1, 50
inner:  addiu $t1, $t1, -1
        addu $t2, $t2, $t0
        bne $t1, $zero, inner
        addiu $t0, $t0, -1
        bgtz $t0, outer
        li $v0, 1
        li $a0, 0
        syscall
|}

let test_superblock_chains () =
  let program =
    match Ptaint_asm.Assembler.assemble chain_loop_asm with
    | Ok p -> p
    | Error e -> Alcotest.failf "assembly failed: %a" Ptaint_asm.Assembler.pp_error e
  in
  let bulk = differential "superblock-chains" Sim.Config.default program in
  let m = bulk.machine in
  (match bulk.outcome with
   | Sim.Exited 0 -> ()
   | o -> Alcotest.failf "outcome: %a" Sim.pp_outcome o);
  Alcotest.(check bool) "blocks were promoted" true (m.Machine.sb_promoted > 0);
  Alcotest.(check bool) "chains linked up" true (m.Machine.chain_hits > 1000)

(* Taint flips inside a chain: each loop iteration reads four tainted
   bytes (full variant), scrubs every trace of them, then spins a
   clean inner loop — so once the loop is promoted, a single chain run
   crosses from the full variant into the clean variant, which is
   exactly the per-entry re-selection (deopt) path. *)
let flip_loop_asm =
  {|
        .text
main:   li $t3, 20
loop:   li $v0, 2               # sys_read: 4 tainted bytes -> buf
        li $a0, 0
        la $a1, buf
        li $a2, 4
        syscall
        lw $t0, 0($a1)
        addu $t2, $t0, $t0      # propagate with live taint
        sw $zero, 0($a1)        # scrub the memory taint...
        li $t0, 0               # ...and both registers
        li $t2, 0
        li $t4, 30
spin:   addiu $t4, $t4, -1      # clean spin, mid-chain
        bne $t4, $zero, spin
        addiu $t3, $t3, -1
        bgtz $t3, loop
        li $v0, 1
        li $a0, 0
        syscall
        .data
buf:    .space 8
|}

let test_taint_flip_mid_chain () =
  let program =
    match Ptaint_asm.Assembler.assemble flip_loop_asm with
    | Ok p -> p
    | Error e -> Alcotest.failf "assembly failed: %a" Ptaint_asm.Assembler.pp_error e
  in
  let config =
    Sim.Config.(
      default
      |> with_sources { Ptaint_os.Sources.none with stdin = true }
      |> with_stdin (String.init 80 (fun i -> Char.chr (65 + (i mod 26)))))
  in
  let bulk = differential "taint-flip-mid-chain" config program in
  let m = bulk.machine in
  (match bulk.outcome with
   | Sim.Exited 0 -> ()
   | o -> Alcotest.failf "outcome: %a" Sim.pp_outcome o);
  Alcotest.(check bool) "blocks were promoted" true (m.Machine.sb_promoted > 0);
  Alcotest.(check bool) "chains linked up" true (m.Machine.chain_hits > 0);
  Alcotest.(check bool) "variant flips were observed mid-chain" true
    (m.Machine.sb_deopts > 0);
  Alcotest.(check bool) "some blocks ran clean" true (m.Machine.clean_blocks > 0);
  Alcotest.(check bool) "some blocks ran with live taint" true
    (m.Machine.blocks_run > m.Machine.clean_blocks);
  Alcotest.(check int) "memory scrubbed" 0 (Memory.tainted_bytes m.Machine.mem);
  Alcotest.(check int) "registers scrubbed" 0 (Regfile.tainted_count m.Machine.regs)

(* --- every opcode x both variants x every policy ------------------- *)

(* Raw SIMIPS loop bodies over every non-terminator opcode, run hot
   enough that the loop block is translated and chained.  Registers
   t0..t3 start tainted from stdin (all four bytes, the low two, or
   the high two), t4..t7 start from constants with zero bytes (so
   [and] and [andi] meet the Table 1 zero rule); the body reads and
   writes them freely, loads and stores through the reserved base $s7
   into a 64-byte buffer whose first 16 bytes are tainted, and halfway
   through the loop every pool register and HI/LO is scrubbed back to
   a constant — so the translated block runs on the full variant
   before the scrub and on the clean variant after it, deoptimizing
   whenever a load brings memory taint back.
   A late-address gadget computes $s3 = $s7 + (($s6 == K) & pool) each
   pass: at iteration K only, the body's $s3 access may go misaligned
   or, under the tracking policies, carry a tainted base — a fault or
   alert raised from compiled code.  Its unmapped form computes
   $s3 = $s7 + (($s6 == K) << 30) instead, so at iteration K the $s3
   access lands far past every mapped page and segfaults there.  Each
   pass also stores the base register itself, so taint injected into
   it shows in memory. *)

type late_target = Pool of string | Unmapped

(* The unmapped form's offset from [buf]: the data segment is at
   0x10000000, so [buf] plus this lies between the heap and the
   stack. *)
let unmapped_offset = 1 lsl 30

let pool = [| "$t0"; "$t1"; "$t2"; "$t3"; "$t4"; "$t5"; "$t6"; "$t7" |]
let base_slot = 23 (* $s7 *)
let pool_consts = [| 0x00ff00ff; 0xff00; 0x7fff0000; 0 |]
let matrix_passes = 4 * Ptaint_cpu.Superblock.threshold

let matrix_insn_gen =
  let open QCheck2.Gen in
  let reg = oneofl (Array.to_list pool) in
  let dst = frequency [ (9, reg); (1, return "$zero") ] in
  let src = frequency [ (9, reg); (1, return "$zero") ] in
  let mem ~width ~base =
    let* w = int_range 0 ((64 / width) - 1) in
    let* skew = frequency [ (29, return 0); (1, int_range 1 (max 1 (width - 1))) ] in
    return (Printf.sprintf "%d(%s)" ((w * width) + if width = 1 then 0 else skew) base)
  in
  let base = frequency [ (4, return "$s7"); (1, return "$s3") ] in
  frequency
    [ ( 6,
        let* op =
          oneofl
            [ "addu"; "add"; "subu"; "sub"; "and"; "or"; "xor"; "nor"; "slt"; "sltu";
              "sllv"; "srlv"; "srav" ]
        in
        let* d = dst and* a = src and* b = src in
        return (Printf.sprintf "%s %s, %s, %s" op d a b) );
      (1, let* r = reg in return (Printf.sprintf "xor %s, %s, %s" r r r));
      ( 4,
        let* op = oneofl [ "addiu"; "addi"; "slti"; "sltiu" ] in
        let* d = dst and* a = src and* imm = int_range (-300) 300 in
        return (Printf.sprintf "%s %s, %s, %d" op d a imm) );
      ( 3,
        let* op = oneofl [ "andi"; "ori"; "xori" ] in
        let* d = dst and* a = src
        and* imm = oneofl [ 0; 0xff; 0xff00; 0xffff; 0x1234; 0x80 ] in
        return (Printf.sprintf "%s %s, %s, %d" op d a imm) );
      ( 2,
        let* op = oneofl [ "sll"; "srl"; "sra" ] in
        let* d = dst and* a = src and* sh = int_range 0 31 in
        return (Printf.sprintf "%s %s, %s, %d" op d a sh) );
      ( 1,
        let* d = dst and* imm = int_range 0 0xffff in
        return (Printf.sprintf "lui %s, %d" d imm) );
      ( 4,
        let* op, width = oneofl [ ("lw", 4); ("lh", 2); ("lhu", 2); ("lb", 1); ("lbu", 1) ] in
        let* d = dst and* base = base in
        let* m = mem ~width ~base in
        return (Printf.sprintf "%s %s, %s" op d m) );
      ( 3,
        let* op, width = oneofl [ ("sw", 4); ("sh", 2); ("sb", 1) ] in
        let* s = src and* base = base in
        let* m = mem ~width ~base in
        return (Printf.sprintf "%s %s, %s" op s m) );
      ( 2,
        let* op = oneofl [ "mult"; "multu"; "div"; "divu" ] in
        let* a = src and* b = src in
        return (Printf.sprintf "%s %s, %s" op a b) );
      ( 2,
        let* op = oneofl [ "mfhi"; "mflo" ] in
        let* d = dst in
        return (Printf.sprintf "%s %s" op d) );
      ( 1,
        let* op = oneofl [ "mthi"; "mtlo" ] in
        let* a = src in
        return (Printf.sprintf "%s %s" op a) );
      (1, return "nop") ]

let matrix_case_gen =
  let open QCheck2.Gen in
  let* body = list_size (int_range 3 12) matrix_insn_gen in
  let* late = int_range 1 (Ptaint_cpu.Superblock.threshold - 1) in
  let* late_target =
    frequency [ (4, map (fun r -> Pool r) (oneofl (Array.to_list pool))); (1, return Unmapped) ]
  in
  let* input = string_size ~gen:printable (return 16) in
  return (body, late, late_target, input)

let matrix_asm (body, late, late_target, _) =
  let li r v = Printf.sprintf "        li %s, %d" r v in
  let scrub =
    List.init 8 (fun i -> li pool.(i) (if i < 4 then i + 1 else pool_consts.(i - 4)))
    @ [ "        mthi $zero"; "        mtlo $zero" ]
  in
  String.concat "\n"
    ([ "        .text";
       "main:   li $v0, 2";
       "        li $a0, 0";
       "        la $a1, buf";
       "        li $a2, 16";
       "        syscall";
       "        la $s7, buf";
       "        lw $t0, 0($s7)";
       "        lw $t1, 4($s7)";
       "        lhu $t2, 8($s7)";
       "        lw $t3, 12($s7)";
       "        sll $t3, $t3, 16" ]
     @ List.init 4 (fun i -> li pool.(4 + i) pool_consts.(i))
     @ [ li "$s6" matrix_passes; li "$s5" (matrix_passes / 2);
         "loop:   xori $s1, $s6, " ^ string_of_int late;
         "        sltiu $s1, $s1, 1";
         (match late_target with
          | Pool r -> Printf.sprintf "        and $s1, $s1, %s" r
          | Unmapped -> Printf.sprintf "        sll $s1, $s1, 30");
         "        addu $s3, $s7, $s1" ]
     @ List.map (fun l -> "        " ^ l) body
     @ [ "        sw $s7, 60($s7)";
         "        addiu $s6, $s6, -1";
         "        bne $s6, $s5, next" ]
     @ scrub
     @ [ "next:   bgtz $s6, loop";
         "        li $v0, 1";
         "        li $a0, 0";
         "        syscall";
         "        .data";
         "buf:    .space 64" ])

let matrix_policies =
  [ ("full", Ptaint_cpu.Policy.default);
    ("control-only", Ptaint_cpu.Policy.control_only);
    ("none", Ptaint_cpu.Policy.unprotected);
    ("baseline", Ptaint_cpu.Policy.baseline_no_tracking);
    ("no-compare-untaint", { Ptaint_cpu.Policy.default with compare_untaints = false }) ]

let matrix_program case =
  let source = matrix_asm case in
  match Ptaint_asm.Assembler.assemble source with
  | Ok p -> p
  | Error e -> Alcotest.failf "assembly failed: %a\n%s" Ptaint_asm.Assembler.pp_error e source

let matrix_config input policy =
  Sim.Config.(
    default |> with_policy policy
    |> with_sources { Ptaint_os.Sources.none with stdin = true }
    |> with_stdin input)

(* [switches] totals the variant switches inside compiled chains. *)
let matrix_case switches ((_, _, _, input) as case) =
  let program = matrix_program case in
  let config = matrix_config input in
  List.iter
    (fun (label, policy) ->
      let bulk = differential label (config policy) program in
      let m = bulk.machine in
      (match bulk.outcome with
       | Sim.Exited _ when m.Machine.sb_promoted = 0 ->
         Alcotest.failf "%s: the loop ran every pass but was never promoted" label
       | _ -> ());
      switches := !switches + m.Machine.sb_deopts;
      if label = "baseline" then begin
        if m.Machine.blocks_run <> m.Machine.clean_blocks then
          Alcotest.failf "baseline: %d of %d blocks ran with register taint"
            (m.Machine.blocks_run - m.Machine.clean_blocks) m.Machine.blocks_run;
        (* spurious register taint on the loop's base register, which
           nothing writes: without tracking nothing propagates or
           clears it, so the rest of the run has a dirty register file *)
        let at = bulk.instructions / 2 in
        let config = config policy in
        let fault = Ptaint_fi.Fi.Reg_spurious_taint { slot = base_slot } in
        let injected =
          (Ptaint_fi.Fi.run_plan ~plan:[ { at; fault } ] (Sim.boot ~config program)).result
        in
        (* the reference side reaches [at] one step at a time *)
        let s = Sim.boot ~config program in
        let rec to_at () =
          if s.Sim.s_machine.Machine.icount < at then
            match Sim.session_step s with Sim.Running -> to_at () | Sim.Finished _ -> ()
        in
        to_at ();
        ignore (Ptaint_fi.Fi.apply s.Sim.s_machine fault);
        check_agree "baseline + reg-spurious-taint" injected (Sim.finish_per_step s)
      end)
    matrix_policies;
  true

let test_opcode_matrix () =
  let switches = ref 0 in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 17 |])
    (QCheck2.Test.make ~count:120 ~name:"opcode x variant x policy" ~print:matrix_asm
       matrix_case_gen (matrix_case switches));
  (* a switch inside a compiled chain means both variants ran there *)
  Alcotest.(check bool) "both variants ran in compiled chains" true (!switches > 0)

(* The unmapped late target under every load and store width: the
   access segfaults from compiled code, and both engines report the
   same address and access kind — the kind [step_core] and the
   translated arm each attach to the memory's bare [Unmapped]. *)
let test_unmapped_every_width () =
  List.iter
    (fun (op, access) ->
      let case = ([ op ^ " $t4, 8($s3)" ], 5, Unmapped, "0123456789abcdef") in
      let program = matrix_program case in
      let addr = Ptaint_asm.Program.symbol_exn program "buf" + 8 + unmapped_offset in
      List.iter
        (fun (label, policy) ->
          let ctx = Printf.sprintf "%s under %s" op label in
          let bulk = differential ctx (matrix_config "0123456789abcdef" policy) program in
          if bulk.machine.Machine.sb_promoted = 0 then
            Alcotest.failf "%s: the loop was never promoted" ctx;
          match bulk.outcome with
          | Sim.Fault (Machine.Segfault f) when f.addr = addr && f.access = access -> ()
          | o -> Alcotest.failf "%s: expected a segfault at 0x%08x, got %s" ctx addr (outcome_str o))
        matrix_policies)
    Ptaint_mem.Memory.
      [ ("lw", Load); ("lh", Load); ("lhu", Load); ("lb", Load); ("lbu", Load);
        ("sw", Store); ("sh", Store); ("sb", Store) ]

(* --- batch runner --------------------------------------------------- *)

(* The campaign engine feeds every job through [finish]; a two-domain
   collected batch must therefore match a sequential per-step run job
   for job. *)
let test_run_jobs_differential () =
  let stack = Catalog.exp1_stack_smash in
  let format = Catalog.exp3_format in
  let jobs =
    List.concat_map
      (fun (s : Scenario.t) ->
        let p = s.build () in
        List.map (fun (c : Scenario.case) -> (c.Scenario.config p, p)) s.cases)
      [ stack; format ]
  in
  let batch, _ =
    Campaign.run_jobs ~domains:2
      (List.mapi
         (fun i (config, p) -> Job.make ~tag:(string_of_int i) ~config (Job.Image p))
         jobs)
  in
  let batch = List.map Campaign.result_exn batch in
  let seq = List.map (fun (c, p) -> Sim.finish_per_step (Sim.boot ~config:c p)) jobs in
  List.iteri
    (fun i (b, r) -> check_agree (Printf.sprintf "run_jobs job %d" i) b r)
    (List.combine batch seq)

(* --- a generated pool, hot, through the arena ------------------------ *)

(* The campaign's own unit of work: [Gen] jobs read their input with
   [gets], one [read] syscall per byte, so each job crosses the kernel
   dozens of times between short compiled stretches.  Every job of a
   fixed-seed pool (every default policy, benign and attacking
   payloads) first warms its image's shared tier, then runs once more
   through the domain arena, the streaming engine's path, and is
   diffed against a per-step run of a fresh boot of the same image.
   The arena result is checked before the next arena boot rewinds
   it. *)
let test_generated_pool () =
  let spec = Gen.spec ~seed:11 ~variants:4 ~jobs:180 () in
  let images = Hashtbl.create 8 in
  let image (j : Job.t) =
    let key = Job.image_key j in
    match Hashtbl.find_opt images key with
    | Some tpl -> tpl
    | None ->
      let tpl = Sim.prepare ~config:j.Job.config (Job.program j) in
      Hashtbl.replace images key tpl;
      tpl
  in
  let outcomes = Hashtbl.create 4 and syscalls = ref 0 in
  for i = 0 to Gen.jobs_of spec - 1 do
    let j = Gen.job spec i in
    let config = j.Job.config and tpl = image j in
    let ctx = Printf.sprintf "%s (%s)" j.Job.tag (Gen.policy_label spec i) in
    for _ = 1 to Ptaint_cpu.Superblock.threshold do
      ignore (Sim.run_template_arena ~config tpl)
    done;
    let hot = Sim.run_template_arena ~config tpl in
    let m = hot.machine in
    if m.Machine.sb_promoted <> 0 || m.Machine.chain_hits = 0 then
      Alcotest.failf "%s: the tier did not carry the run (%d promoted, %d chain hits)" ctx
        m.Machine.sb_promoted m.Machine.chain_hits;
    syscalls := !syscalls + hot.syscalls;
    let kind =
      match hot.outcome with Sim.Exited _ -> "exit" | Sim.Alert _ -> "alert" | _ -> "other"
    in
    Hashtbl.replace outcomes kind ();
    check_agree ctx hot (Sim.finish_per_step (Sim.boot_template ~config tpl))
  done;
  List.iter
    (fun kind ->
      if not (Hashtbl.mem outcomes kind) then Alcotest.failf "the pool has no %s outcome" kind)
    [ "exit"; "alert" ];
  if !syscalls < 10 * Gen.jobs_of spec then
    Alcotest.failf "the pool made only %d syscalls in %d jobs" !syscalls (Gen.jobs_of spec)

let () =
  Alcotest.run "block engine"
    [ ( "differential",
        [ QCheck_alcotest.to_alcotest prop_random_programs;
          Alcotest.test_case "attack catalogue, both engines" `Quick test_catalog_differential;
          Alcotest.test_case "attack catalogue, warm tier" `Quick test_catalog_warm_tier;
          Alcotest.test_case "clean -> tainted -> clean" `Quick test_clean_taint_clean;
          Alcotest.test_case "clean variant over tainted memory" `Quick
            test_clean_over_tainted_memory;
          Alcotest.test_case "superblock chains, both engines" `Quick test_superblock_chains;
          Alcotest.test_case "taint flip mid-chain" `Quick test_taint_flip_mid_chain;
          Alcotest.test_case "opcode x variant x policy" `Quick test_opcode_matrix;
          Alcotest.test_case "unmapped late target, every width" `Quick test_unmapped_every_width;
          Alcotest.test_case "run_jobs matches per-step" `Quick test_run_jobs_differential;
          Alcotest.test_case "generated pool, hot through the arena" `Quick
            test_generated_pool ] ) ]
