(** Protection and propagation policy.

    [mode] selects which detector fires (section 4.3 and the related
    work comparison): [Pointer_taintedness] is the paper's mechanism;
    [Control_data_only] models control-flow-integrity schemes such as
    Minos / Secure Program Execution, which check only control
    transfers; [No_protection] runs the program unchecked (attacks
    succeed or crash).  The Table 1 XOR-idiom and AND-with-zero rules
    always apply; only the compare rule has a switch, which the
    ablation experiments turn off to measure what it buys. *)

type mode = No_protection | Control_data_only | Pointer_taintedness

type t = {
  mode : mode;
  track : bool;            (** propagate taint at all (off = overhead baseline) *)
  compare_untaints : bool; (** Table 1: compares untaint their operands *)
}

val default : t
(** Full pointer-taintedness detection, the compare rule on. *)

val control_only : t
val unprotected : t
(** [No_protection] with tracking still on (so "what would have been
    tainted" remains observable). *)

val baseline_no_tracking : t
(** Tracking disabled entirely; used to measure tracking overhead. *)

val detects_data_pointers : t -> bool
val detects_control : t -> bool
