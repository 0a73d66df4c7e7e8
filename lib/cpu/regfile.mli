(** Taint-extended register file: 32 GPRs plus HI/LO, each byte of
    each register carrying a taintedness bit (section 4.2).
    Register 0 reads as untainted zero regardless of writes.

    Stored as one flat [int] array of packed {!Ptaint_taint.Tword}
    bits, so get/set/untaint never allocate. *)

type t

val create : unit -> t
val get : t -> Ptaint_isa.Reg.t -> Ptaint_taint.Tword.t
val set : t -> Ptaint_isa.Reg.t -> Ptaint_taint.Tword.t -> unit
val get_hi : t -> Ptaint_taint.Tword.t
val set_hi : t -> Ptaint_taint.Tword.t -> unit
val get_lo : t -> Ptaint_taint.Tword.t
val set_lo : t -> Ptaint_taint.Tword.t -> unit

val untaint : t -> Ptaint_isa.Reg.t -> unit
(** Clear the register's taint mask in place (compare-untaint rule). *)

val value : t -> Ptaint_isa.Reg.t -> int

val set_value : t -> Ptaint_isa.Reg.t -> int -> unit
(** Write an untainted 32-bit value — the clean fast path's register
    writeback.  Equivalent to [set t r (Tword.untainted v)]. *)

val tainted_count : t -> int
(** Number of slots (GPRs, HI, LO) currently carrying any taint.
    Derived from a live bitmap maintained by every mutator; [0] means
    the whole file is provably clean. *)

val is_clean : t -> bool
(** [tainted_count t = 0], as a single load-and-compare — the
    superblock tier's per-block variant-selection guard. *)

val reset : t -> unit

(** {1 Architectural slots}

    The regfile holds more than the 32 GPRs; diagnostics that want
    "every register the file actually holds" (HI/LO included) iterate
    [0 .. slots-1] with these accessors instead of hard-coding 32. *)

val slots : int
(** Number of architectural slots: 32 GPRs + HI + LO = 34. *)

val slot : t -> int -> Ptaint_taint.Tword.t
(** Read slot [i]; slot 0 is the hardwired zero register, slots 32/33
    are HI/LO. *)

val slot_name : int -> string
(** ["v0"], ..., ["hi"], ["lo"]. *)

(** {1 Superblock-translator storage hooks}

    The translated tier compiles blocks into closures that operate on
    the packed slot array directly; these accessors expose the raw
    storage plus the bitmap-maintenance writes it must pair with full
    (possibly tainted) and known-clean register writebacks.  Nothing
    else should use them. *)

val storage : t -> int array
(** The flat 34-slot array of packed Tword bits.  Slot 0 always holds
    untainted zero; writers must preserve that (writing packed 0 to
    slot 0 is the idiomatic no-op). *)

val mark : t -> int -> m:int -> unit
(** Record that slot [i] now carries 4-bit taint mask [m] (0..15),
    branchlessly updating the live-taint bitmap.  Must follow every
    raw write of possibly-tainted packed bits. *)

val mark_clean : t -> int -> unit
(** Record that slot [i] is now untainted. *)

val mark_clean2 : t -> int -> int -> unit
(** [mark_clean] on two slots with one bitmap update (the
    compare-untaint rule touches both operands). *)

(** {1 Fault-injection entry points}

    Used by the fault-injection engine to corrupt architectural state
    while keeping the live tainted-slot counter exact — the clean fast
    path silently mis-executes if {!tainted_count} drifts.  Slot 0
    (the hardwired zero register) absorbs injections silently; out of
    range slots are ignored. *)

val inject_flip_value : t -> int -> bit:int -> unit
(** Flip value bit [bit land 31] of the slot; taint mask untouched. *)

val inject_set_taint : t -> int -> tainted:bool -> unit
(** Force the slot's taint mask fully on (spurious taint) or fully
    off (taint loss), through the counter-maintaining write path. *)
