(** Pre-decoded basic blocks for bulk execution.

    The text segment is decoded once per machine into flat handler
    records: one {!opcode} plus up to three pre-extracted integer
    fields per instruction (immediates already sign-extended, branch
    offsets already scaled, [lui] values already shifted), and a
    [stops] table giving every entry index the position of the first
    block terminator (branch / jump / syscall / break) at or after
    it.  {!Machine.run} dispatches once per block instead of once per
    instruction: a cold block runs through its terminator on the
    per-step semantics, a hot one is translated by {!Superblock}.

    The analysis is pure: it never changes execution semantics, it
    only re-represents {!Ptaint_isa.Insn.t} values in a form the
    superblock translator can compile without re-matching nested
    constructors.  The original instructions are kept alongside for
    alert records and diagnostics. *)

(** Flat, single-level opcode.  [ADD]/[ADDU] (and [SUB]/[SUBU],
    [ADDI]/[ADDIU]) collapse to one opcode because the simulator
    gives them identical semantics (no overflow traps). *)
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
  (* terminators *)
  | Obeq | Obne | Oblez | Obgtz | Obltz | Obgez
  | Oj | Ojal | Ojr | Ojalr
  | Osyscall | Obreak

type t = {
  base : int;            (** text base address *)
  n : int;               (** number of instructions *)
  ops : opcode array;
  fa : int array;        (** field 1: rd / rt / rs / target / code *)
  fb : int array;        (** field 2: rs / rt / base register *)
  fc : int array;        (** field 3: pre-processed immediate / offset / shamt *)
  stops : int array;
      (** [stops.(i)] is the index of the first terminator at or
          after [i], or [n] when the straight-line run falls off the
          end of the text segment.  The block entered at [i] is
          [\[i, stops.(i)\]] inclusive of the terminator. *)
  insns : Ptaint_isa.Insn.t array;  (** originals, for alert records *)
  counts : int array;
      (** Superblock-tier hotness counters, one per entry index.
          Bumped by {!Machine.run} at every cold dispatch of the
          entry until it is promoted to a translated superblock.  Shared (racily, with
          benign lost updates) across every machine and domain
          executing the same decoded program, so counts warm up
          across jobs exactly like the snapshot pages do. *)
}

val analyze : base:int -> Ptaint_isa.Insn.t array -> t

val index_of : base:int -> len:int -> int -> int
(** [index_of ~base ~len pc] is the instruction index of [pc] in a
    text segment of [len] instructions starting at [base], or [-1]
    when [pc] is below the base, misaligned, or past the end.  This
    is the single bounds-checked pc→index rule shared by
    {!Machine.fetch}, the per-step engine and the bulk driver, so
    the block cutter can never disagree with the stepper. *)

val is_terminator : Ptaint_isa.Insn.t -> bool
(** Instructions that end a basic block: branches, jumps, [syscall],
    [break]. *)
