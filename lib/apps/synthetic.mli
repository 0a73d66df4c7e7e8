(** The synthetic vulnerable programs of Figure 2 (exp1/exp2/exp3),
    a function-pointer variant, and the Table 4 false-negative
    victims.  Each value is Mini-C source compiled onto the guest by
    the experiments; the companion helpers document the frame/heap
    layout facts the attack payloads rely on. *)

val exp1 : string
(** Stack buffer overflow: [char buf[10]; gets(buf);] — overflowing
    input taints the saved frame pointer and return address; the
    detector fires at the function's [jr $ra]. *)

val exp1_buffer_to_ra : int
(** Bytes from the start of [buf] to the saved return address. *)

val root_shell_symbol : string
(** Name of the ret2libc target function exp1's payload can jump to
    under [No_protection]. *)

val exp2 : string
(** Heap corruption: an 8-byte [malloc] allocation overflowed into the
    free chunk behind it; [free]'s forward-coalescing unlink then
    stores through the corrupted (tainted) [fd] pointer. *)

val exp2_user_to_next_header : int
(** Bytes from the returned buffer to the next chunk's size field. *)

val exp3 : string
(** Format string: [recv(s, buf, 100, 0); printf(buf);] with the
    argument pointer starting three words below [buf], so the paper's
    exact payload [abcd%x%x%x%n] dereferences 0x64636261. *)

val exp4_fnptr : string
(** Control-data variant: overflow into an adjacent function pointer,
    caught at the indirect call ([jalr]) — detectable by both the
    control-data-only baseline and pointer taintedness. *)

val exp4_buffer_to_fnptr : int

(** {1 Table 4 false-negative scenarios} *)

val fn_integer_overflow : string
(** (A): unsigned input assigned to a signed index, upper-bound check
    only.  The bounds check launders the taint, so the negative-index
    write to [admin] is not detected. *)

val fn_auth_flag : string
(** (B): buffer overflow corrupting an adjacent authentication flag —
    no pointer is tainted, no detection. *)

val fn_auth_flag_guarded : string
(** The same program hardened with the section 5.3 annotation
    extension ([guard(&auth, 4)]): the overflow is now detected. *)

val fn_info_leak : string
(** (C): format-string read ([%x%x%x%x]) leaking a stack secret —
    no tainted dereference, not detected; the [%n] variant is. *)
