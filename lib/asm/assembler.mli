(** Two-pass assembler for SIMIPS assembly.

    Supports the full instruction set of {!Ptaint_isa.Insn}, the
    directives [.text .data .word .half .byte .ascii .asciiz .space
    .align .globl], and the usual pseudo-instructions ([li la move b
    beqz bnez blt ble bgt bge bltu bleu bgtu bgeu seq sne mul divq rem
    not neg]).  [.word] initialisers may reference labels (including
    text labels — function pointers and jump tables). *)

type error = { line : int; message : string }

exception Asm_error of error
(** The typed assembly failure: [line] is the 1-based source line.
    Raised by {!assemble_exn}; the campaign runtime classifies it as a
    loader error, not a crash. *)

val assemble : string -> (Program.t, error) result
(** Text at {!Ptaint_mem.Layout.text_base}, data at
    {!Ptaint_mem.Layout.data_base}. *)

val assemble_exn : string -> Program.t
(** Like {!assemble} but raises {!Asm_error} on malformed input. *)

val pp_error : Format.formatter -> error -> unit
