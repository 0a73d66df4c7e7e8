(** A gdb-flavoured debugger for guest programs.

    The command interpreter is a library so it can be scripted and
    tested; [bin/ptaint_dbg] wraps it in a terminal REPL.

    Commands:
    - [s [n]] — step n instructions (default 1), printing each
    - [c] — continue to breakpoint, alert, fault or exit
    - [b <symbol|0xaddr>] — set a breakpoint; [b] lists them
    - [d <symbol|0xaddr>] — delete a breakpoint
    - [regs] — non-zero registers with taint masks
    - [mem <symbol|0xaddr> [n]] — hex dump ([*] marks tainted bytes)
    - [bt] — guest backtrace
    - [dis [symbol|0xaddr] [n]] — disassemble (default: around pc)
    - [taint] — tainted registers and guarded ranges
    - [info] — execution status
    - [help], [q] *)

type t

val create : Sim.session -> t

val exec : t -> string -> string * [ `Continue | `Quit ]
(** Execute one command line; returns the output to display. *)
