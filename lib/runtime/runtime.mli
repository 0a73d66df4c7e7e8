(** Guest runtime: startup code, syscall stubs and a small libc.

    The libc is written in Mini-C and runs {e on the simulated CPU},
    so taintedness propagates through it byte-by-byte exactly as it
    would through a real C library: [strcpy] copies taint bits,
    [malloc]/[free] maintain a doubly-linked free list whose [unlink]
    is the heap-corruption attack surface, and the [printf] family is
    built on a [vformat] core supporting [%d %u %x %c %s %n %hn %hhn]
    — the format-string attack surface. *)

val prototypes : string
(** C declarations for the syscall stubs and libc, to prepend to
    application sources. *)

val libc_c : string
(** string.h / stdlib.h / stdio.h subset implementation (Mini-C). *)

val malloc_c : string
(** The allocator, modelled on pre-hardening dlmalloc/glibc 2.x:
    boundary-tag chunks, a circular doubly-linked free bin, forward
    coalescing with an unguarded [unlink] (the 2004-era behaviour the
    paper's heap attacks exploit). *)

val crt0_asm : string
(** [_start]: marshals [argc]/[argv]/[envp] and calls [main]. *)

val syscalls_asm : string
(** Assembly stubs bridging the stack calling convention to the
    kernel's register convention. *)

val compile : string -> Ptaint_asm.Program.t
(** [compile app_c] builds a full guest program: prototypes, the
    application source, libc, allocator, crt0 and stubs. *)
