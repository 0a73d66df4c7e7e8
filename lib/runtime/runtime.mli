(** Guest runtime: startup code, syscall stubs and a small libc.

    The libc is written in Mini-C and runs {e on the simulated CPU},
    so taintedness propagates through it byte-by-byte exactly as it
    would through a real C library: [strcpy] copies taint bits,
    [malloc]/[free] maintain a doubly-linked free list whose [unlink]
    is the heap-corruption attack surface, and the [printf] family is
    built on a [vformat] core supporting [%d %u %x %c %s %n %hn %hhn]
    — the format-string attack surface. *)

val compile : ?untaint_writeback:bool -> string -> Ptaint_asm.Program.t
(** [compile app_c] builds a full guest program, the one compile
    unit every guest shares: C prototypes of the stubs and libc, the
    application source, the libc, the allocator (pre-hardening
    dlmalloc-style boundary tags with an unguarded [unlink]), the
    [_start] crt0 and the syscall stubs.
    [untaint_writeback] is {!Ptaint_cc.Cc.compile}'s (default [true]). *)
