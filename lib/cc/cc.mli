(** Mini-C compiler driver. *)

exception Error of { line : int; message : string; phase : string }

val compile :
  ?untaint_writeback:bool -> ?extra_asm:string list -> string -> Ptaint_asm.Program.t
(** Compile and assemble.  [extra_asm] fragments (e.g. a runtime's
    crt0 and syscall stubs) are appended to the generated assembly. *)
