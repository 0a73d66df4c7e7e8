(** Superblock translation tier.

    Hot basic blocks (per-entry counters live on {!Block.t}) are
    compiled into one OCaml closure chain per block, built at
    promotion time from the pre-decoded opcode/field arrays, with two
    specialized variants selected at every block entry:

    - the {e clean} variant runs while no register holds taint
      ({!Regfile.is_clean}) and elides all mask computation and
      policy checks — registers are read and written as raw 32-bit
      values.  Memory may hold taint: loads test the tag bits of the
      element they read, and a tainted load under a tracking policy
      marks its register and finishes the block on the full variant
      (one deopt; the block no longer counts as clean).  Stores write
      untainted data, clearing the tag bits they overwrite;
    - the {e full} variant has the policy constants baked into the
      closures (no handler-table dispatch, no [Tword] boxing), with a
      clean-operand fast path on the hot ALU opcodes.

    Superblocks chain across direct branches, fallthroughs and
    register-indirect jumps through patchable successor slots, so
    straight-line guest code and loops never return to the
    dispatcher.  Fuel is hoisted to a single whole-block check at
    entry; a block that does not fit the remaining fuel exits with
    {!ev_fuel} and the driver runs the partial block one instruction
    at a time on the reference semantics, keeping [Sim.run_until] /
    fault-injection slicing icount-exact.

    Every call in a chain is an OCaml tail call, so the stack stays
    flat: an event site writes its description into the {!env} fields
    and returns, landing control directly back in the driver.  The
    only exception that crosses a chain is
    {!Ptaint_mem.Tagged_store.Unmapped}; memory closures park their
    block-relative index in [e_rel] beforehand so the driver can
    attribute the fault. *)

(** Mutable execution context shared between the driver
    ({!Machine.run}) and the translated closures.  Concrete so the
    driver reads and writes fields without accessor calls. *)
type env = {
  e_rf : Regfile.t;
  e_regs : int array;  (** [Regfile.storage e_rf], cached *)
  e_ts : Ptaint_mem.Tagged_store.t;
  e_st : Ptaint_mem.Memory.stats;
  mutable e_fuel : int;      (** instructions the chain may still run *)
  mutable e_guards : (int * int) list;
  mutable e_has_guards : bool;
  mutable e_ev : int;        (** exit event code, see [ev_*] *)
  mutable e_rel : int;       (** block-relative index of the event site *)
  mutable e_a : int;         (** event operand (register / address / code) *)
  mutable e_b : int;         (** second event operand (address / width) *)
  mutable e_next_pc : int;   (** continuation pc for [ev_none] / fuel / traps *)
  mutable e_cur : int;       (** entry index of the block being run *)
  mutable e_blocks : int;    (** blocks entered during this chain run *)
  mutable e_cleans : int;    (** of which ran the clean variant to the end *)
  mutable e_deopts : int;    (** variant switches inside this chain run *)
  mutable e_mode : int;      (** last variant: -1 unknown, 0 clean, 1 full *)
}

(** A translated superblock.  All fields except the successor slots
    are immutable, so publishing one into the tier table with a plain
    store is safe across domains (a stale read falls back to the
    dispatcher). *)
type sb = {
  sb_pc : int;
  sb_idx : int;              (** entry instruction index *)
  sb_len : int;              (** body length including the terminator *)
  sb_go : env -> unit;
  sb_slots : slots;
}

(** Patchable successor links.  [s_taken] / [s_fall] are
    direct-threaded: seeded at translate time with a self-patching
    miss thunk that probes the tier table, overwrites the slot with
    the successor's [sb_go] on hit, and exits with {!ev_none} on miss
    — so a hot edge costs exactly one indirect call.  [s_jr] is a
    monomorphic cache for register-indirect jumps, validated by pc on
    every crossing (it keeps the whole [sb] record for that). *)
and slots = {
  mutable s_taken : env -> unit;
  mutable s_fall : env -> unit;
  mutable s_jr : sb;
}

val dummy : sb
(** The "untranslated / unlinked" sentinel filling fresh tier tables
    and slots.  [dummy.sb_pc = -1] never matches a jump target.
    Test with physical inequality: [sb != dummy]. *)

(** A per-(program, policy) translation table, shareable across every
    machine and domain executing the same decoded text — entries are
    published racily but idempotently. *)
type tier = {
  t_blocks : Block.t;
  t_policy : Policy.t;
  t_sbs : sb array;          (** indexed by entry index; [dummy] = none *)
}

(** {1 Exit event codes} *)

val ev_none : int      (** chain miss: the driver dispatches [e_next_pc] *)
val ev_fuel : int      (** block longer than remaining fuel; pc at [e_next_pc] *)
val ev_syscall : int   (** terminator trap; [e_next_pc] past the terminator *)
val ev_break : int     (** like syscall; [e_a] = break code *)
val ev_jump_alert : int   (** tainted jr/jalr target; [e_a] = rs *)
val ev_load_alert : int   (** tainted load address; [e_a] = base reg, [e_b] = ea *)
val ev_store_alert : int  (** tainted store address; [e_a] = base reg, [e_b] = ea *)
val ev_guard_alert : int  (** tainted store into a guard; [e_a] = rt, [e_b] = ea *)
val ev_misalign : int     (** [e_a] = address, [e_b] = width *)
val ev_unmapped : int
(** Never set by translated code: the driver synthesizes it when
    {!Ptaint_mem.Tagged_store.Unmapped} escapes a chain. *)

val threshold : int
(** Dispatch count at which an entry index is promoted. *)

val make_env :
  rf:Regfile.t ->
  ts:Ptaint_mem.Tagged_store.t ->
  st:Ptaint_mem.Memory.stats ->
  env
(** One per machine; the register file, tagged store and stats record
    are cached for the machine's lifetime (all three are stable
    across arena resets). *)

val create_tier : Block.t -> Policy.t -> tier

val translate : tier -> int -> sb
(** [translate tier idx] compiles the block entered at instruction
    index [idx] — which must have an in-text terminator
    ([stops.(idx) < n]) — publishes it in the tier table and returns
    it.  Idempotent: racing translations of the same index produce
    equivalent superblocks. *)
