(** Multicore batch simulation engine.

    The paper's evaluation is an embarrassingly parallel matrix —
    attacks × policies × (attack, benign) plus the SPEC-like
    false-positive workloads — and every future scaling direction
    (larger corpora, fuzzing campaigns, fault-injection sweeps) has
    the same shape.  Every batch is a sequence of {!Job.t}s run by one
    engine ({!engine}): a persistent domain pool ({!Pool}) when it has
    two or more workers, the calling domain itself when it has one,
    one content-keyed image cache ({!Images}), and one containment
    wrapper per job.  The engine
    comes in two shapes over the same machinery: {!run_stream} folds
    each job into an incremental {!tally} and keeps nothing, and
    {!run_jobs} collects one {!job_result} per job, in submission
    order, together with aggregate {!stats}.

    Isolation guarantees:
    - {b fuel}: each job's instruction budget is its config's
      [max_instructions]; a guest that spins exhausts only its own
      fuel, never the campaign's.
    - {b wall clock}: with [~job_timeout] (or the job's own
      [Job.timeout]), each job additionally gets a wall-clock budget
      enforced cooperatively at fuel-slice boundaries; a job that
      overruns is reported as a {!Timeout} failure and its worker
      moves on.
    - {b exceptions}: a job whose execution raises — including a
      payload that fails to assemble, compile or load — is classified
      into the {!failure_kind} taxonomy and reported as {!Failed}; the
      remaining jobs run to completion.  One poisoned job can never
      bring down a worker domain or the pool.
    - {b retries}: failures classified as plain {!Crashed} (the only
      plausibly transient kind) are retried up to [~retries] times
      with exponential backoff; deterministic failures (timeouts,
      guest faults, loader errors) are never retried.

    Determinism: simulations share no mutable state — every job boots
    its own machine state, memory image and kernel — so results are
    byte-identical whatever [~domains] is.

    Image sharing: the first worker to meet a payload builds its
    program and loads it once via {!Ptaint_sim.Sim.prepare}, keyed by
    {!Job.image_key}; every job with the same image restores the
    copy-on-write memory snapshot instead of re-building and
    re-loading.  Snapshot pages are immutable, so concurrent restores
    from many domains are safe, and a restored boot is
    observationally identical to a fresh load — the sharing never
    changes results. *)

val label_of_policy : Ptaint_cpu.Policy.t -> string
(** Canonical report label for a policy's mode: ["no protection"],
    ["control-data only"], ["pointer taintedness"]. *)

(** {1 Failure taxonomy}

    A job that produces no simulation result failed for one of four
    distinguishable reasons.  The taxonomy is typed so campaign
    consumers never string-match exception text: a watchdog
    {!Timeout} is an experiment parameter, a {!Guest_fault} is a
    property of the guest under test (unknown syscall, malformed
    arguments), a {!Loader_error} is a malformed input program, and
    only {!Crashed} is an actual harness failure — the sole kind
    retried. *)

type failure_kind =
  | Timeout of { seconds : float }
      (** wall-clock watchdog fired; [seconds] is the configured
          [job_timeout] *)
  | Guest_fault of { sysnum : int; pc : int; args : int list }
      (** the guest left the syscall ABI
          ({!Ptaint_os.Kernel.Guest_fault}) *)
  | Loader_error of { where : string; message : string }
      (** {!Ptaint_asm.Loader.Error} or {!Ptaint_asm.Assembler.Asm_error}
          ([where] is ["line N"] for assembler failures) *)
  | Crashed  (** any other exception — harness bug or transient fault *)

type failure = { kind : failure_kind; exn : string; backtrace : string }

type status =
  | Finished of Ptaint_sim.Sim.result
  | Failed of failure  (** the job failed; the campaign continued *)

val kind_name : failure_kind -> string
(** ["timeout"], ["guest fault"], ["loader error"], ["crashed"]. *)

type timing = {
  started : float;   (** [Unix.gettimeofday] at job start, on the worker *)
  finished : float;
  domain : int;
      (** id of the domain the job ran on: a pool worker's, or the
          caller's own when the engine has one worker *)
}

type job_result = {
  name : string;
  policy_label : string;
  status : status;
  violation : string option;  (** [expect]'s verdict, when given *)
  attempts : int;  (** 1 + retries consumed (≥ 1) *)
  timing : timing;
  trace : (int * int) option;  (** the submitted job's correlation id *)
}

val outcome_name : job_result -> string
(** Deterministic one-word outcome for reports: the simulation
    outcome's name for {!Finished} jobs, {!kind_name} for {!Failed}
    ones.  Never includes exception text or wall-clock
    values, so report lines built from it diff cleanly across runs
    and [-j] settings. *)

val result_exn : job_result -> Ptaint_sim.Sim.result
(** The simulation result of a {!Finished} job; raises
    [Invalid_argument] on {!Failed}, with the failure kind, attempt
    count and the worker-side backtrace in the message. *)

type stats = {
  jobs : int;
  failed : int;  (** jobs with {!Failed} status, all kinds *)
  violations : int;
  wall_seconds : float;
  instructions : int;  (** guest instructions, summed over finished jobs *)
  syscalls : int;
  detections : (string * int) list;
      (** alerts per policy label, in first-submission order *)
  metrics : (string * Ptaint_obs.Metrics.t) list;
      (** per-policy-label registries, in first-submission order:
          counters ([jobs], [alerts], [instructions], [syscalls],
          [tainted loads], [tainted stores], plus per-failure-kind
          counters [timeouts]/[guest faults]/[loader errors]/[crashed]
          and [retries] when non-zero) and a ["job wall ms"]
          histogram *)
}

val run_jobs :
  ?domains:int ->
  ?trace:Ptaint_obs.Chrome.t ->
  ?job_timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  Job.t list ->
  job_result list * stats
(** Run the batch on [domains] workers (default
    [Domain.recommended_domain_count]; one worker means the calling
    domain, see {!engine}) and collect every result, in
    submission order — the engine of {!run_stream}, with one
    difference: every job boots a fresh machine from the shared image
    ({!Ptaint_sim.Sim.run_template}), never the domain arena, because
    the caller keeps each [result.machine] after the worker has moved
    on.

    [job_timeout] arms a per-job wall-clock watchdog (seconds): each
    job runs fuel-sliced with an absolute deadline checked at every
    slice boundary, and an overrun is reported as a {!Timeout}
    failure.  The check is cooperative, so granularity is one
    {!Ptaint_sim.Sim.default_slice} worth of guest execution (well
    under a millisecond).  A job's own [Job.timeout] overrides it.

    [retries] (default 0) re-runs a job whose failure classified as
    {!Crashed}, up to that many extra attempts, sleeping
    [backoff * 2^(attempt-1)] seconds (default backoff 0.05) between
    attempts.  The deadline is re-derived per attempt.

    A job's [Job.injections] run through {!Ptaint_fi.Fi.run_plan}; its
    [Job.expect] judges the result.

    With [trace], one {!Ptaint_obs.Chrome.job_span} per job, in
    submission order, is written from the calling domain after the
    last job: category [campaign], the worker domain as its track,
    and a [policy] arg. *)

(** {1 Image cache}

    The content-keyed cache every executor runs its jobs through: the
    engine behind {!run_jobs}/{!run_stream} (128 images) and both of
    ptaintd's backends (its [--cache] capacity).  It keys on
    {!Job.image_key} — the program plus exactly the config fields
    that shape the boot image — and holds each image's
    {!Ptaint_sim.Sim.template}: pre-decoded block tables plus the
    copy-on-write boot snapshot, with the program behind
    {!Ptaint_sim.Sim.Image.program}.  A hit skips the build, and every
    job boots under its own policy/stdin/fuel. *)

module Images : sig
  type t
  (** Thread-safe: one cache is shared by all of a process's worker
      domains. *)

  val create : capacity:int -> t
  (** An empty cache holding at most [capacity] images (≥ 1, else
      [Invalid_argument]), evicting the least recently used. *)

  val obtain : t -> Job.t -> Ptaint_sim.Sim.template * bool
  (** The job's image, building and publishing it on a miss; the flag
      is [true] on a hit.  Builds run outside the lock, so distinct
      programs compile in parallel; when two builds of one key race,
      both callers get the image published first.  Raises the
      toolchain's typed errors on a malformed payload — call inside
      the failure-classification net, as {!run_job} does. *)

  val add : t -> string -> Ptaint_sim.Sim.template -> Ptaint_sim.Sim.template
  (** [add t key image] publishes [image] under [key] and returns the
      survivor: [image] itself, or the image already held for [key]
      (a racing build got there first), which then counts as used.
      Inserting into a full cache first evicts the least recently
      used image. *)

  val counters : t -> (string * int) list
  (** [evictions], [entries] and [capacity], by those names.  Hits
      and misses are the caller's to count, from {!obtain}'s flag. *)
end

val run_job :
  ?job_timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  keep:bool ->
  Images.t ->
  Job.t ->
  job_result * bool
(** Execute one {!Job.t} on the calling domain with the full
    containment machinery of {!run_jobs} (watchdog deadline, typed
    failure classification, retry-with-backoff for {!Crashed}) but no
    pool — the daemon's per-job entry point.  The image lookup runs
    inside the attempt, so a payload that fails to build is a
    classified {!Failed} job; the flag says whether the image came
    from the cache.  With [keep] the job boots a fresh machine and the
    result may be kept; without it the job boots the calling domain's
    arena ({!Ptaint_sim.Sim.run_template_arena}) and the result is
    valid only until the next arena boot on this domain. *)

(** {1 Streaming campaigns}

    {!run_jobs} accumulates one {!job_result} per job; at
    generative-campaign scale (10⁵–10⁶ jobs) that list — and the
    machines and kernels it pins — dwarfs the working set.
    {!run_stream} bounds memory at any job count: jobs are pulled
    lazily from a sequence, executed through the per-domain arena
    boot path ({!Ptaint_sim.Sim.run_template_arena}), reduced on the
    worker to a compact {!job_summary}, and folded {e in submission
    order}, whatever the scheduling, into an incremental {!tally}.  A
    streamed campaign's counters-only [metrics_table] is
    byte-identical to the collected batch's at any [-j]. *)

type detail =
  | Outcome of Ptaint_sim.Sim.outcome
      (** a finished job's outcome — immutable, safe to keep after the
          arena is rebooted; render with {!Ptaint_sim.Sim.pp_outcome} *)
  | Text of string
      (** a failed job's exception text, or an outcome already
          rendered elsewhere (the daemon's event) *)

type job_summary = {
  s_index : int;  (** submission index within the stream *)
  s_name : string;
  s_label : string;
  s_outcome : string;  (** {!outcome_name} *)
  s_counters : (string * int) list;  (** {!job_counters} *)
  s_failed : bool;
  s_violation : bool;
  s_detected : bool;
  s_alert_pc : int option;  (** detection site, for coverage fitness *)
  s_instructions : int;
  s_syscalls : int;
  s_attempts : int;
  s_trace : (int * int) option;  (** the submitted job's correlation id *)
  s_detail : detail;  (** what the job's report line says *)
  s_exit_code : int;
      (** {!Ptaint_sim.Sim.exit_code} of a finished job, 4 for a failed
          one *)
  s_timing : timing;  (** wall clock on the worker; never in the JSONL *)
}
(** Everything aggregation, the JSONL sink and a per-job report line
    need from one job,
    extracted on the worker before its arena is rebooted — the full
    result is never retained. *)

val jsonl_of_summary : job_summary -> string
(** One JSON object (no trailing newline) for the on-disk result
    sink.  Deterministic: no wall-clock fields.  Jobs that carried a
    trace id append ["trace"] (16-digit hex) and ["span"] fields;
    traceless jobs keep the historic byte-exact shape. *)

type tally
(** Incremental campaign aggregate: the deterministic counter half of
    {!stats}, the distinct-detection-site set, and a per-label
    ["job wall ms"] histogram (shown only by [metrics_table
    ~timings:true], never dumped).  Mutable; single-owner. *)

val tally : unit -> tally
val tally_add : tally -> job_summary -> unit
val tally_sites : tally -> int list
(** Distinct alert pcs seen, ascending — the coverage-style fitness
    signal of a generative campaign. *)

val tally_stats : ?wall_seconds:float -> tally -> stats
(** The accumulated aggregate as a {!stats}.  Counters, detections and
    label order are byte-identical to what {!run_jobs} computes over
    the same jobs (it folds them through a tally too).  Of the timing
    histograms only the ["job wall ms"] rows of this run are present
    (they do not survive a checkpoint round-trip). *)

type tally_dump = {
  d_failed : int;
  d_violations : int;
  d_counters : (string * (string * int) list) list;
      (** per label, its counter rows; both in registration order *)
  d_sites : int list;
}
(** Persistence image of a {!tally}: ints and strings only, so a dump
    round-trips byte-exactly through the checkpoint manifest.  Jobs,
    instructions, syscalls and detections are the counters'
    [jobs]/[instructions]/[syscalls]/[alerts] rows; only the numbers
    no counter holds are fields of their own. *)

val dump_tally : tally -> tally_dump
val load_tally : tally_dump -> tally

val run_stream :
  ?domains:int ->
  ?start:int ->
  ?tally:tally ->
  ?on_result:(job_summary -> unit) ->
  Job.t Seq.t ->
  tally * int
(** Stream the sequence through [domains] workers (see {!engine})
    and fold each completion into the tally; returns the tally and the
    final cursor (index one past the last job folded).

    With a pool, at most 4× the worker count jobs are admitted beyond
    the flush cursor, which bounds both queue depth and the reorder
    buffer; with one worker each job is pulled only once the previous
    one is folded.
    [on_result] is called once per job, in submission order, after
    the job is folded — the hook for a JSONL sink and for checkpoints:
    when it sees job [i], every job up to [i] is in the tally and no
    later one is.  A job's own [Job.timeout] arms its watchdog; a
    stream never retries.

    Resume: pass [start] (the manifest cursor), a [tally] rebuilt via
    {!load_tally}, and a sequence beginning at job [start].

    Workers boot via the domain arena, which rewinds only the guest
    pages the previous job wrote or mapped when the image repeats.
    With one worker the jobs boot the calling domain's arena, so an
    arena result the caller took before the stream is invalid after
    it. *)

val engine :
  ?domains:int ->
  job_timeout:float option ->
  retries:int ->
  backoff:float ->
  start:int ->
  keep:bool ->
  reduce:(int -> job_result -> 'a) ->
  emit:('a -> unit) ->
  Job.t Seq.t ->
  int
(** The machinery under {!run_stream} and {!run_jobs}: pull jobs
    lazily, run each through {!run_job} against one engine-owned image
    cache (128 images), reduce its result with [reduce index result]
    before the next job on that domain, and hand every reduced value
    to [emit] on the calling domain, in submission order from index
    [start].  Returns the index one past the last job emitted.

    [domains] (default [Domain.recommended_domain_count]) picks the
    shape.  With one worker (or fewer) every job runs on the calling
    domain, in order — [run_job], [reduce], [emit] — with no pool and
    no handoff.  With two or more a persistent {!Pool} runs the jobs
    and [reduce], and the caller folds completions back into order.

    A [reduce] that raises still yields one value for its index: the
    engine reduces a {!Crashed} result carrying the exception's text
    in its place, so the stream completes — provided [reduce] does not
    raise on that result too. *)

val job_counters : job_result -> (string * int) list
(** The deterministic counter deltas this job contributes to its
    policy label's metrics registry, in registration order — the unit
    the daemon streams per finished job.  Merging every job's deltas
    into per-label registries in submission order rebuilds
    {!stats.metrics}'s counters exactly; a {!tally} is defined as
    that merge. *)

val failure_counters : failure_kind -> (string * int) list
(** The deltas a first-attempt {!Failed} job contributes —
    [[("jobs", 1); (kind, 1)]] with the {!job_counters} kind key.
    This is the requeue-accounting unit for supervisors that must
    synthesize a typed failure for a job they killed (dead worker,
    blown deadline, exhausted redeliveries): emitting exactly this
    shape keeps streamed tallies mergeable with cooperative-path
    results. *)

val metrics_table : ?timings:bool -> stats -> string
(** Render {!stats.metrics} as an aligned table.  By default only the
    deterministic counter rows appear, so the output is identical
    across [~domains] settings and can be diffed in CI;
    [~timings:true] adds the wall-clock histogram rows. *)

val pp_stats : Format.formatter -> stats -> unit
(** One line: deterministic aggregates first, wall time bracketed last
    so batch outputs can be compared "modulo timings". *)
