(** Emulated operating system.

    Implements the syscall surface the guest C library is built on and
    performs {e taintedness initialisation} exactly as in section 4.4:
    every byte delivered to user space by [SYS_READ] (local I/O,
    keyboard, files) or [SYS_RECV] (network) is marked tainted,
    subject to the {!Sources.t} policy. *)

type t

exception Guest_fault of { sysnum : int; pc : int; args : int list }
(** Raised by {!handle} when the guest requests an unknown syscall
    number or passes malformed arguments (e.g. a negative transfer
    length): the guest has left the ABI, and the kernel reports the
    full syscall context ([$v0], [pc], [$a0..$a2]) as a structured
    fault instead of a stringly [Failure].  The campaign runtime
    classifies it as [Guest_fault]. *)

val create :
  ?sources:Sources.t ->
  ?fs:Fs.t ->
  ?stdin:string ->
  ?sessions:string list list ->
  ?uid:int ->
  ?trace:Ptaint_obs.Trace.t ->
  heap_base:int ->
  heap_limit:int ->
  mem:Ptaint_mem.Memory.t ->
  unit ->
  t
(** With [trace], the kernel emits a {!Ptaint_obs.Event.Syscall} event
    for every serviced syscall and a {!Ptaint_obs.Event.Taint_in}
    event for every delivery of tainted bytes to user space, recording
    the source syscall, destination range and input-stream offset —
    the provenance anchors for incident reports. *)

val handle : t -> Ptaint_cpu.Machine.t -> [ `Continue | `Exit of int ]
(** Service the syscall currently requested by the machine (number in
    [$v0]); writes the result to [$v0].  Transfers stream byte by byte
    between guest memory and the host side, so servicing a call
    allocates nothing per call and never in proportion to the length
    the guest asks for.  A buffer that is unmapped part-way makes the
    call return -1: a [read]/[recv] keeps the bytes stored before the
    fault and still consumes the whole transfer from its source, a
    [write]/[send] leaves stdout, the file and the socket unchanged;
    either way the accesses made before the fault count in
    {!Ptaint_mem.Memory.stats}. *)

(** {1 Observation points for experiments} *)

val stdout_contents : t -> string
val net : t -> Socket.t
val fs : t -> Fs.t
val uid : t -> int
val execs : t -> string list
(** Paths passed to [SYS_EXEC], in order — a recorded
    [exec "/bin/sh"] is the signature of a successful compromise. *)

val input_bytes : t -> int
(** Total bytes delivered from external sources (Table 3 column). *)

val syscall_count : t -> int
