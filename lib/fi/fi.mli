(** Deterministic, seeded fault injection for the taintedness
    architecture.

    The paper argues the detector from the attacker's side; this
    subsystem argues it from the hardware's side: what happens to
    detection coverage when the mechanism itself takes faults?  Each
    {!fault} is one fault model — data-word bit flips (the classic
    memory-corruption trigger), taint-bit loss (the detector silently
    disarmed: the false-negative direction), spurious taint (the
    detector over-armed: the false-positive direction), and
    stuck-at-clean regions (a persistently broken taint-RAM range).

    Injections are scheduled at guest {e instruction counts} and
    applied by fuel-slicing: {!run_plan} drives the simulation to
    each scheduled icount with {!Ptaint_sim.Sim.run_until}, mutates
    the paused machine through the counter-exact injection entry
    points ({!Ptaint_cpu.Regfile}, {!Ptaint_mem.Memory}), and
    resumes.  Everything is deterministic: a plan is data, the
    schedule is in guest instructions (never wall clock), and {!Rng}
    is a pure seeded generator — the same seed yields the same trial
    on any machine at any [-j]. *)

type fault =
  | Flip_data of { addr : int; bit : int }
      (** flip bit [bit land 7] of the data byte at [addr]; taint
          plane untouched *)
  | Flip_reg of { slot : int; bit : int }
      (** flip bit [bit land 31] of a register slot's value *)
  | Taint_loss of { addr : int; len : int }
      (** clear the taint bit of every byte in the range *)
  | Spurious_taint of { addr : int; len : int }
      (** set the taint bit of every byte in the range *)
  | Reg_taint_loss of { slot : int }  (** untaint one register slot *)
  | Reg_spurious_taint of { slot : int }  (** taint one register slot *)
  | Taint_wipe
      (** clear all taint state, registers and memory — total loss *)
  | Stuck_clean of { addr : int; len : int }
      (** like [Taint_loss], but re-cleared at every subsequent slice
          boundary: the region's taint RAM is stuck at clean *)

type injection = { at : int; fault : fault }
(** Apply [fault] when the guest has executed [at] instructions. *)

type applied = { injection : injection; ok : bool }
(** [ok = false]: the fault hit unmapped memory, or the guest stopped
    before [at] — the injection landed on nothing. *)

type report = { result : Ptaint_sim.Sim.result; applied : applied list }
(** [applied] is in plan order.  Detection latency of an alerting run
    is [result.instructions - at] of the triggering injection: the
    engine stops on the alerting instruction, so [instructions] is the
    alert point. *)

val pp_injection : Format.formatter -> injection -> unit

val apply : Ptaint_cpu.Machine.t -> fault -> bool
(** Mutate the (paused) machine; returns whether the fault landed.
    Emits a [Fault_injected] obs event when it did.  Register faults
    go through {!Ptaint_cpu.Regfile}'s injection entry points, which
    keep its taint bitmap exact; the superblock tier selects its clean
    variant from that bitmap, so the selection stays sound after any
    injection.  Under {!Ptaint_mem.Memory.debug_asserts} it audits the
    memory with {!Ptaint_mem.Memory.check_invariants} afterwards. *)

val default_slice : int
(** 4096 — finer than {!Ptaint_sim.Sim.default_slice} so
    [Stuck_clean] re-clears with useful granularity. *)

val run_plan :
  ?config:Ptaint_sim.Sim.config -> ?deadline:float -> ?slice:int ->
  plan:injection list -> Ptaint_asm.Program.t -> report
(** Boot [program] and run it to completion, applying [plan] (sorted
    by [at]) on the way.  [deadline] arms the cooperative watchdog
    ({!Ptaint_sim.Sim.Timeout}).  A zero-injection plan with no
    deadline degenerates to exactly one {!Ptaint_sim.Sim.finish}
    call. *)

val parse : string -> (injection, string) result
(** Parse a command-line injection spec, [MODEL@ICOUNT[:TARGET]]:
    [data-flip@N:ADDR.BIT], [reg-flip@N:SLOT.BIT],
    [taint-loss@N:ADDR+LEN], [spurious-taint@N:ADDR+LEN],
    [stuck-clean@N:ADDR+LEN], [reg-taint-loss@N:SLOT],
    [reg-spurious-taint@N:SLOT], [taint-wipe@N].  Addresses accept
    any [int_of_string] literal ([0x...] included). *)

(** Deterministic 63-bit xorshift generator — plans must be pure
    functions of the seed, so the global [Random] state (and anything
    wall-clock derived) is off limits in campaign code. *)
module Rng : sig
  type t

  val create : int -> t
  val next : t -> int  (** uniform non-negative int *)

  val int : t -> int -> int
  (** [int t n] in [[0, n)]; 0 when [n <= 0]. *)
end
