(** Whole-system simulator: CPU + memory + OS + program.

    This is the facade the examples and experiments drive: configure
    the protection {!Ptaint_cpu.Policy.t}, the taint sources, and the
    external world (argv, stdin, scripted network sessions, files),
    run a program, and observe the outcome — a clean exit, a security
    alert (detected attack), or a fault (the undetected attack
    crashing or corrupting the guest). *)

type config = {
  policy : Ptaint_cpu.Policy.t;
  sources : Ptaint_os.Sources.t;
  argv : string list;
  env : (string * string) list;
  stdin : string;
  sessions : string list list;  (** scripted inbound network sessions *)
  fs_init : (string * string) list;  (** path, contents *)
  uid : int;
  max_instructions : int;
  timing : bool;  (** run through the pipeline timing model *)
  obs : bool;
      (** attach a fresh {!Ptaint_obs.Trace.t} event bus to each booted
          session — taint introduction, propagation milestones, alerts,
          faults and syscalls become structured events, and the machine
          records a last-N instruction window.  Off by default: the
          interpreter then stays on its allocation-free fast path. *)
  on_step : (Ptaint_cpu.Machine.t -> Ptaint_isa.Insn.t -> unit) option;
      (** called before each instruction executes — tracing hook *)
}

val default_config : config
(** Policy {!Ptaint_cpu.Policy.default}, every taint source on, argv
    [["prog"]], uid 1000, a 200M-instruction budget, no timing model,
    no observation.  Build other configs by record update:

    {[ { Sim.default_config with Sim.policy; stdin = data } ]} *)

(** {1 Named configurations}

    Protection policies have stable textual names so drivers,
    campaign job generators and command lines stop hand-rolling their
    own policy plumbing against the 12-field {!config} record. *)

val policy_labels : (string * Ptaint_cpu.Policy.t) list
(** Canonical label for each policy: ["full"], ["control-only"],
    ["none"], ["baseline"] (tracking disabled). *)

val policy_of_label : string -> (Ptaint_cpu.Policy.t, string) Stdlib.result
(** Accepts the canonical labels plus their aliases
    (["pointer-taintedness"], ["minos"], ["unprotected"]); [Error]
    carries a human-readable message listing the known labels. *)

type outcome =
  | Exited of int
  | Alert of Ptaint_cpu.Machine.alert
  | Fault of Ptaint_cpu.Machine.fault
  | Trap of int
  | Out_of_fuel

type result = {
  outcome : outcome;
  stdout : string;
  net_sent : string list;
  execs : string list;
  final_uid : int;
  instructions : int;
  input_bytes : int;
  syscalls : int;
  cycles : int option;      (** when [timing] *)
  pipeline : Ptaint_cpu.Pipeline.stats option;
  kernel : Ptaint_os.Kernel.t;
  machine : Ptaint_cpu.Machine.t;
  image : Ptaint_asm.Loader.image;
}

(** {1 Steppable sessions}

    {!run} drives a program to completion; a {!session} exposes the
    same machinery one instruction at a time, for debuggers and
    custom drivers. *)

type session = {
  s_machine : Ptaint_cpu.Machine.t;
  s_kernel : Ptaint_os.Kernel.t;
  s_image : Ptaint_asm.Loader.image;
  s_config : config;
  s_pipeline : Ptaint_cpu.Pipeline.t option;
}

type progress = Running | Finished of outcome

val boot : ?config:config -> Ptaint_asm.Program.t -> session
val session_step : session -> progress
(** Execute one instruction (servicing syscalls transparently). *)

val finish :
  ?deadline:float -> ?slice:int -> ?on_slice:(session -> unit) -> session -> result
(** Run the session to completion and collect the result.  Routes
    through the bulk engine ({!Ptaint_cpu.Machine.run}, which drives
    its traced per-instruction engine itself when an obs trace is
    attached) unless a pipeline timing model or an [on_step] hook
    needs {!session_step}.  A [deadline] or an [on_slice] hook makes
    the run fuel-sliced (see below); with neither, each dispatch gets
    all the remaining fuel and [slice] is ignored.  Results are
    bit-identical whatever the routing and slicing. *)

val finish_per_step : session -> result
(** Run to completion strictly one instruction at a time — the
    reference engine the bulk path is differentially tested against.
    Semantically identical to {!finish}, just slower. *)

val result_of : session -> outcome -> result
(** Collect the session's observable state into a {!result} — for
    drivers ({!run_until} clients, fault injectors) that finish a
    session themselves. *)

(** {1 Fuel-sliced execution}

    {!finish} and {!run_until} share one driver.  Given a [deadline]
    or an [on_slice] hook it caps each engine dispatch at [slice]
    instructions (default {!default_slice}) and runs a boundary check
    between slices and around every syscall.  Slice boundaries are
    observationally invisible — a sliced run is byte-identical to an
    unsliced one — so they are where cooperative machinery lives: the
    wall-clock watchdog (raising {!Timeout} past [deadline]) and the
    fault injector's per-slice hooks ([on_slice], e.g. re-asserting
    stuck-at-clean regions). *)

exception Timeout of { instructions : int }
(** Raised from a slice boundary when the wall-clock [deadline]
    (absolute, [Unix.gettimeofday] seconds) has passed; carries the
    guest instruction count at interruption.  The campaign runtime
    classifies it as [Timeout]. *)

val default_slice : int
(** 65536 instructions — coarse enough to cost nothing (<1% of bulk
    throughput), fine enough for sub-millisecond watchdog latency. *)

val run_until :
  ?deadline:float -> ?slice:int -> ?on_slice:(session -> unit) ->
  session -> icount:int -> progress
(** Drive the session until the guest has executed [icount]
    instructions in total, then pause ([Running]) with the machine
    stopped exactly there — the fault injector's scheduling primitive.
    [Finished] means the guest stopped first.  Call repeatedly with
    increasing targets; mutate machine state freely while paused. *)

val run : ?deadline:float -> ?slice:int -> ?config:config -> Ptaint_asm.Program.t -> result

(** {1 Boot images (snapshot templates)}

    Loading a guest image is the expensive part of booting: the
    loader assembles argv/env/stack and writes every initial byte
    (data and taint) into guest memory; decoding the text
    segment into block tables is the other cost every boot used to
    repay.  An {!Image.t} performs both once — load, copy-on-write
    {!Ptaint_mem.Memory.snapshot}, {!Ptaint_cpu.Block.analyze} — and
    each {!boot_template} then restores the snapshot and seeds the
    machine's pre-decode cache by reference instead of re-doing
    either.  Snapshot pages and block tables are immutable after
    creation (memory writers clone before mutating), so one image may
    be booted concurrently from any number of domains — and parked
    indefinitely in the daemon's cache.

    The memory image depends on [argv], [env] and [sources] (they
    shape the initial stack and its taint), so an image is only
    valid for configs that agree with the one it was prepared under;
    everything else — policy, stdin, sessions, fs, uid, fuel, timing
    — may vary freely between boots. *)

(** A prepared boot image.  Immutable; share freely by reference. *)
module Image : sig
  type t

  val program : t -> Ptaint_asm.Program.t
  (** The program the image was prepared from. *)

  val blocks : t -> Ptaint_cpu.Block.t
  (** The pre-decoded block tables every boot of this image shares. *)
end

type template = Image.t
(** Historical name for {!Image.t}; the [*_template] entry points
    below operate on images. *)

val prepare : ?config:config -> Ptaint_asm.Program.t -> template
(** Load [program] once, snapshot its initial memory and pre-decode
    its text.  Only [config.argv]/[env]/[sources] matter here. *)

val boot_template : ?config:config -> template -> session
(** Boot from the snapshot instead of re-loading.  Raises
    [Invalid_argument] if [config] disagrees with the template on
    argv/env/sources. *)

val run_template : ?deadline:float -> ?slice:int -> ?config:config -> template -> result
(** [finish ?deadline ?slice (boot_template ?config tpl)] —
    bit-identical to [run ?config program] on the template's
    program. *)

val boot_template_arena : ?config:config -> template -> session
(** {!boot_template} through this domain's recycled arena: the
    domain keeps one machine (register file, memory wrapper, page
    table) and each arena boot rewinds it in place from the image's
    snapshot ({!Ptaint_mem.Memory.reset_from_snapshot} +
    {!Ptaint_cpu.Machine.reset}) instead of allocating fresh — the
    image may differ from boot to boot.  Observationally identical to
    {!boot_template}, with a strictly weaker lifetime: the session
    (and any {!result} collected from it) aliases the arena and is
    valid only until the next arena boot on the same domain — extract
    what you need before booting again.  The memory rewind costs
    O(pages the previous job wrote or mapped) when the image repeats,
    one pass over the pages when the previous image had the same page
    set, and a linear rebuild otherwise (and after the domain's first,
    fresh, boot).  Configs using the timing model, [on_step] or [obs]
    fall back to a fresh boot (their sessions are meant to be
    kept). *)

val run_template_arena :
  ?deadline:float -> ?slice:int -> ?config:config -> template -> result
(** [finish ?deadline ?slice (boot_template_arena ?config tpl)] — the streaming
    campaign's per-job fast path.  The result aliases the domain
    arena; read it before the next arena boot on this domain. *)

val detected : result -> bool

val exit_code : outcome -> int
(** Process-style exit status: the guest's own status (mod 256) for a
    clean exit, 3 for a security alert, 4 for anything else. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {1 Observation}

    Only meaningful when the session was booted with
    [obs = true]; all three return empty/[None] otherwise. *)

val trace : session -> Ptaint_obs.Trace.t option
(** The session's event bus — subscribe sinks before running. *)

val events : result -> Ptaint_obs.Event.t list
(** Recorded events, in emission order. *)

val insn_window : result -> (int * Ptaint_isa.Insn.t) list
(** The last-N [(pc, insn)] window the machine executed, oldest
    first. *)
