(** Content-addressed cache of built guest images.

    Repeat submissions are ptaintd's common case — the same attack
    program swept over policies, payloads or fault plans.  The cache
    keys on {!Ptaint_campaign.Job.image_key} (program bytes +
    argv/env/taint sources, exactly the inputs that shape the boot
    image) and stores the assembled program together with its
    {!Ptaint_sim.Sim.template}: pre-decoded block tables plus the
    copy-on-write boot snapshot.  A hit skips the build, and every
    job boots its entry through the worker's arena
    ({!Ptaint_sim.Sim.run_template_arena}) under its own
    policy/stdin/fuel; a miss builds outside the lock so distinct
    programs compile in parallel.  LRU-evicted at
    [capacity] entries; the victim (program and boot template both)
    is dropped in the same critical section that publishes the
    incoming entry, so at most [capacity] templates are ever
    reachable. *)

type entry = {
  program : Ptaint_asm.Program.t;
  template : Ptaint_sim.Sim.template;
}

type t

val create : ?capacity:int -> unit -> t
(** Thread-safe (shared by all worker domains).  Default capacity 64
    entries. *)

val obtain : t -> Ptaint_campaign.Job.t -> entry * bool
(** The cached entry for the job's image, building (and inserting) on
    a miss; the flag is [true] on a hit.  Raises the toolchain's
    typed errors on malformed sources — call inside the campaign
    engine's failure-classification net. *)

val length : t -> int

val counters : t -> (string * int) list
(** [daemon/cache-evictions], [daemon/cache-entries],
    [daemon/cache-capacity].  Hits and misses are the caller's to
    count, from {!obtain}'s flag. *)
