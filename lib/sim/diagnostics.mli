(** Post-mortem diagnostics for alerts and faults.

    When the detector fires, the operator wants more than a PC: which
    function, called from where, and what the tainted registers held.
    The frame layout is fixed (saved FP at [fp+0], return address at
    [fp+4]), so the guest call chain can be recovered by walking the
    frame-pointer links — exactly what a debugger does. *)

val symbolize : Ptaint_asm.Program.t -> int -> string
(** The closest function symbol at or below the address and the
    offset into it (["function+0x1c"]), or the bare hex address
    outside the text segment. *)

type frame = { pc : int; location : string }

val backtrace : Ptaint_asm.Program.t -> Ptaint_cpu.Machine.t -> frame list
(** Innermost frame first.  Stops at [main]/[_start], on a corrupt
    frame chain, or after 32 frames.  Reads the frames without
    counting them as guest loads. *)

val tainted_registers : Ptaint_cpu.Machine.t -> (string * Ptaint_taint.Tword.t) list
(** Every tainted architectural slot by name — the 32 GPRs {e and}
    HI/LO, so tainted multiply/divide results are reported too. *)

val report : Sim.result -> string
(** A human-readable incident report for an [Alert]/[Fault] outcome:
    the alert line, symbolized PC, guest backtrace, and the tainted
    registers at the time of detection.  When the run was observed
    ([obs = true] in its {!Sim.config}) the report also includes the
    last-N instruction window leading up to detection and a
    taint-provenance narrative: which syscall introduced the tainted
    bytes (and at what input offset), which registers and regions they
    reached, and the alert itself.  A run whose event recorder filled
    up gets one more line with the number of later events dropped, so
    a narrative cut short says so. *)
