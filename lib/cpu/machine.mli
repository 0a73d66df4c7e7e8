(** The SIMIPS execution engine with pointer-taintedness detection.

    A functional-level interpreter with the paper's three detectors
    (section 4.3): the jump detector examines the target register of
    [JR]/[JALR] (conceptually after ID/EX); the load/store detector
    examines the effective address (after EX/MEM); a flagged
    instruction raises a security exception at retirement.  The
    {!Pipeline} module layers cycle-accurate timing on top. *)

type code = { base : int; insns : Ptaint_isa.Insn.t array }

type alert_kind =
  | Jump_target
  | Load_address
  | Store_address
  | Guarded_store
      (** tainted data written into a range annotated via {!add_guard}
          — the programmer-annotation extension of section 5.3 *)

type alert = {
  alert_pc : int;
  alert_insn : Ptaint_isa.Insn.t;
  kind : alert_kind;
  reg : Ptaint_isa.Reg.t;       (** register holding the tainted pointer *)
  reg_value : Ptaint_taint.Tword.t;
  ea : int option;              (** effective address, for loads/stores *)
  stage : string;               (** detector stage: "ID/EX" or "EX/MEM" *)
}

type fault =
  | Segfault of { addr : int; access : Ptaint_mem.Memory.access }
  | Misaligned of { addr : int; width : int }
  | Bad_pc of int

type step =
  | Normal
  | Syscall   (** the instruction was a SYSCALL; the OS layer handles it *)
  | Alert of alert
  | Fault of fault
  | Break_trap of int

type obs = {
  obs_trace : Ptaint_obs.Trace.t;
  obs_ring : Ptaint_isa.Insn.t Ptaint_obs.Ring.t;
      (** last-N (pc, insn) window, dumped into incident reports *)
  mutable obs_regs_seen : int;  (** slot bitmask: first-taint already reported *)
  mutable obs_stores_seen : int;  (** region bitmask: tainted store already reported *)
}

type t = {
  regs : Regfile.t;
  mem : Ptaint_mem.Memory.t;
  mutable code : code;
      (** mutable only for {!reset} — an arena machine may be re-aimed
          at a different program between boots *)
  mutable policy : Policy.t;
  mutable pc : int;
  mutable icount : int;
  mutable guard_ranges : (int * int) list;
      (** never-taint annotations: (address, length) — see {!add_guard} *)
  mutable obs : obs option;
      (** observation state; [None] (the default) keeps {!step} on the
          allocation-free fast path — tracing costs one physical
          comparison per instruction when off *)
  mutable decoded : Block.t option;
      (** lazily built pre-decode of the text segment, shared by every
          {!run} call on this machine *)
  mutable blocks_run : int;
      (** basic blocks dispatched by {!run}, cold or inside a chain *)
  mutable clean_blocks : int;
      (** of those, the blocks that ran clean: a translated block that
          ran its clean variant to the end without loading taint into a
          register, or a cold block with no tainted register at its
          entry or its exit *)
  mutable tier : Superblock.tier option;
      (** superblock translation table; seeded from an image's shared
          per-policy tier, or created machine-locally on first use *)
  mutable sbenv : Superblock.env option;
      (** cached chain-execution context (survives {!reset}: it only
          aliases state that is itself stable across resets) *)
  mutable sb_promoted : int;  (** blocks this machine translated *)
  mutable chain_hits : int;
      (** superblock→superblock crossings that stayed inside a chain *)
  mutable chain_misses : int;
      (** chain exits to an untranslated successor *)
  mutable sb_deopts : int;
      (** clean/full variant switches observed inside chain runs — the
          taint-transition deoptimizations, including a clean block
          that finished on the full variant after loading taint *)
}

val create :
  ?policy:Policy.t -> ?decoded:Block.t -> ?tier:Superblock.tier -> code:code ->
  mem:Ptaint_mem.Memory.t -> entry:int -> unit -> t
(** [?decoded] seeds the pre-decode cache with an externally built
    {!Block.t} (an image's shared block table); without it the first
    {!run} analyzes the text segment lazily.  [?tier] likewise seeds
    the superblock tier with an image's shared translation table; it
    must have been built over the same {!Block.t} and policy, else
    {!run} quietly replaces it with a machine-local tier. *)

val reset :
  ?policy:Policy.t -> ?decoded:Block.t -> ?tier:Superblock.tier -> t -> code:code ->
  entry:int -> unit
(** Arena recycling: rewind everything except [mem] (the caller
    restores that separately, e.g. via
    {!Ptaint_mem.Memory.reset_from_snapshot}) so the machine — and the
    register file storage it owns — is reused for a fresh boot,
    possibly of a different program.  Equivalent to a fresh {!create}
    with the same arguments over the same [mem]. *)

val step : t -> step

val run : t -> fuel:int -> step
(** Bulk execution: run up to [fuel] instructions and return [Normal]
    exactly when the fuel ran out, otherwise the event that stopped
    execution ([Syscall], [Alert], [Fault], [Break_trap]) with
    [pc]/[icount] and all machine state byte-identical to [fuel]
    iterations of {!step}.  Dispatches once per basic block over a
    cached pre-decode of the text segment: an entry promoted to the
    {!Superblock} tier runs its translated chain (whose clean variant
    skips all taint algebra while {!Regfile.is_clean} holds, checking
    only the tag bits of what it loads, and switches to the full
    variant mid-block when a load brings taint into a register); any
    other block, and a hot block longer than the remaining fuel, runs
    on the per-step semantics.  With
    observation attached it simply drives {!step} so traces stay
    per-instruction. *)

(** {1 Observability}

    With a trace attached, {!step} additionally records every fetched
    instruction in a bounded ring (the "last N instructions" window of
    an incident report) and emits {!Ptaint_obs.Event.t} values for
    propagation milestones (first taint of each register slot, first
    tainted store into each memory region), alerts and faults. *)

val superblock_counters : t -> (string * int) list
(** The translation-tier telemetry of this machine as labeled event
    counts, in fixed order: [promoted], [chain_hit], [chain_miss],
    [deopt].  These depend on how warm the (possibly shared) tier was
    when the run started, so they are performance telemetry, not part
    of the deterministic per-job counter set. *)

val attach_obs : t -> Ptaint_obs.Trace.t -> unit
(** Attach an event bus and a 48-entry instruction window.  Resets
    the milestone state. *)

val trace : t -> Ptaint_obs.Trace.t option
val ring_window : t -> (int * Ptaint_isa.Insn.t) list
(** The recorded instruction window, oldest first; [[]] when
    observation is off. *)

val note_injection : t -> model:string -> target:string -> unit
(** Emit a {!Ptaint_obs.Event.Fault_injected} event (no-op without a
    trace).  The fault-injection engine calls this after corrupting
    machine state through the {!Regfile}/{!Ptaint_mem.Memory}
    injection entry points. *)

(** {1 Annotation guards (section 5.3 extension)}

    The paper proposes trading some transparency for coverage by
    letting the programmer annotate data that must never be tainted.
    A guard covers [len] bytes at [addr]; any store of tainted data
    into a guarded range raises a {!Guarded_store} alert even though
    the store's {e address} is clean. *)

val add_guard : t -> addr:int -> len:int -> unit
val remove_guard : t -> addr:int -> unit
val guards : t -> (int * int) list
val fetch : t -> int -> Ptaint_isa.Insn.t option
val pp_alert : Format.formatter -> alert -> unit
(** Paper's alert style: ["44d7b0: sw $21,0($3)   $3=0x1002bc20"]. *)

val pp_fault : Format.formatter -> fault -> unit
