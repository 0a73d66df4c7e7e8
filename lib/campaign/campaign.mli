(** Multicore batch simulation engine.

    The paper's evaluation is an embarrassingly parallel matrix —
    attacks × policies × (attack, benign) plus the SPEC-like
    false-positive workloads — and every future scaling direction
    (larger corpora, fuzzing campaigns, fault-injection sweeps) has
    the same shape.  A {!job} names one simulation: a pre-built guest
    program, the {!Ptaint_sim.Sim.config} to run it under, and an
    optional expectation on the result.  {!run} executes a batch on a
    fixed-size domain pool ({!Pool}) and returns one {!job_result} per
    job, in submission order regardless of scheduling, together with
    aggregate {!stats}.

    Isolation guarantees:
    - {b fuel}: each job's instruction budget is its config's
      [max_instructions]; a guest that spins exhausts only its own
      fuel, never the campaign's.
    - {b wall clock}: with [~job_timeout], each job additionally gets
      a wall-clock budget enforced cooperatively at fuel-slice
      boundaries; a job that overruns is reported as a {!Timeout}
      failure and its worker moves on.
    - {b exceptions}: a job whose execution raises is classified into
      the {!failure_kind} taxonomy and reported as {!Failed}; the
      remaining jobs run to completion.  One poisoned job can never
      bring down a worker domain or the pool.
    - {b retries}: failures classified as plain {!Crashed} (the only
      plausibly transient kind) are retried up to [~retries] times
      with exponential backoff; deterministic failures (timeouts,
      guest faults, loader errors) are never retried.

    Determinism: simulations share no mutable state — every job boots
    a fresh machine, memory image and kernel — so results are
    byte-identical whatever [~domains] is.  Build programs {e before}
    submission (jobs carry a built [Program.t], not a builder) so
    compilation caches and lazies are only touched from the
    submitting domain.

    Image sharing: {!run} loads each distinct image (same program,
    argv, env, taint sources) once via {!Ptaint_sim.Sim.prepare} and
    every job running it restores the copy-on-write memory snapshot
    instead of re-assembling and re-loading.  Snapshot pages are
    immutable, so concurrent restores from many domains are safe, and
    a restored boot is observationally identical to a fresh load —
    the sharing never changes results. *)

type job

val label_of_policy : Ptaint_cpu.Policy.t -> string
(** Canonical report label for a policy's mode: ["no protection"],
    ["control-data only"], ["pointer taintedness"]. *)

val of_job : ?program:Ptaint_asm.Program.t -> Job.t -> job
(** Lift a unified {!Job.t} into a campaign job.  [program] supplies a
    pre-built guest image (enabling snapshot-template sharing in
    {!run}); without it the worker builds the payload itself, and a
    toolchain failure is contained and classified as a loader error. *)

val job :
  name:string ->
  ?policy_label:string ->
  ?expect:(Ptaint_sim.Sim.result -> string option) ->
  config:Ptaint_sim.Sim.config ->
  Ptaint_asm.Program.t ->
  job
(** One simulation of [program] under [config].  [policy_label]
    (default: derived from [config.policy]) buckets the job in
    {!stats} detection counts.  [expect] inspects the result and
    returns a violation message when the job did not do what the
    campaign expected — violations are counted but do not fail the
    job, and an [expect] function that itself raises is reported as a
    violation, never as a job failure.

    Deprecated as a front-end entry point: build a {!Job.t} and submit
    it through {!run_jobs} so the CLI, the batch runner and the daemon
    all speak the same value; [job] remains for in-process callers
    that already hold a built program and a config. *)

val job_thunk :
  name:string ->
  ?policy_label:string ->
  ?expect:(Ptaint_sim.Sim.result -> string option) ->
  (unit -> Ptaint_sim.Sim.result) ->
  job
(** Escape hatch for work that is not a plain [Sim.run] (custom
    drivers, steppable sessions, fault-injected runs).  The thunk runs
    on a worker domain: it must not touch shared mutable state.  The
    campaign watchdog cannot arm a deadline inside an opaque thunk —
    pass [Sim.finish_sliced ~deadline] yourself if the thunk's guest
    can spin. *)

val job_name : job -> string

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
  domain : int;      (** worker domain id the job ran on *)
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
          and [retries] when non-zero) and wall-clock/pool-concurrency
          histograms *)
}

val run :
  ?domains:int ->
  ?trace:Ptaint_obs.Trace.t ->
  ?log:Ptaint_obs.Log.t ->
  ?job_timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  job list ->
  job_result list * stats
(** Execute the batch on [domains] workers (default
    {!Pool.recommended_domains}).  Results are in submission order.

    [job_timeout] arms a per-job wall-clock watchdog (seconds): each
    [Sim_run] job runs fuel-sliced with an absolute deadline checked
    at every slice boundary, and an overrun is reported as a
    {!Timeout} failure.  The check is cooperative, so granularity is
    one {!Ptaint_sim.Sim.default_slice} worth of guest execution
    (well under a millisecond).

    [retries] (default 0) re-runs a job whose failure classified as
    {!Crashed}, up to that many extra attempts, sleeping
    [backoff * 2^(attempt-1)] seconds (default backoff 0.05) between
    attempts.  The deadline is re-derived per attempt.

    With [trace], one {!Ptaint_obs.Event.Job} span per job (start
    offset, duration, worker domain, outcome) is emitted — from the
    submitting domain, after the pool drains — ready for the Chrome
    trace exporter.

    With [log], each failed job is logged at [Warn] with its typed
    taxonomy (kind, attempts, per-kind details) and trace id as
    structured fields — also from the submitting domain only. *)

val run_jobs :
  ?domains:int ->
  ?trace:Ptaint_obs.Trace.t ->
  ?log:Ptaint_obs.Log.t ->
  ?job_timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  Job.t list ->
  job_result list * stats
(** {!run} over unified {!Job.t} values — the batch entry point the
    CLIs, the experiment matrices and the daemon all share.  Payloads
    are built once on the submitting domain (deduplicated by
    {!Job.image_key}, so a batch submitting the same source many
    times compiles it once) and injection-free jobs with a shared
    image boot from one snapshot template.  A job's own
    [Job.timeout] overrides [job_timeout]; its [Job.injections] run
    through {!Ptaint_fi.Fi.run_plan}. *)

val run_job :
  ?job_timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?run_sim:
    (deadline:float option -> Ptaint_sim.Sim.config -> Ptaint_asm.Program.t ->
     Ptaint_sim.Sim.result) ->
  ?program:Ptaint_asm.Program.t ->
  Job.t ->
  job_result
(** Execute one {!Job.t} on the calling domain with the full
    containment machinery (watchdog deadline, typed failure
    classification, retry-with-backoff for {!Crashed}) but no pool —
    the daemon's per-worker entry point.  [run_sim] (default
    {!Ptaint_sim.Sim.run}) lets the caller route execution through
    its own snapshot-template cache; [program] skips the payload
    build when the compiled image is already at hand. *)

(** {1 Streaming campaigns}

    {!run}/{!run_jobs} accumulate one {!job_result} per job; at
    generative-campaign scale (10⁵–10⁶ jobs) that list — and the
    machines and kernels it pins — dwarfs the working set.
    {!run_stream} bounds memory at any job count: jobs are pulled
    lazily from a sequence, executed on a persistent worker pool
    through the per-domain arena boot path
    ({!Ptaint_sim.Sim.run_template_arena}), reduced on the worker to a
    compact {!job_summary}, and folded {e in submission order},
    whatever the scheduling, into an incremental {!tally}.  A streamed
    campaign's counters-only [metrics_table] is byte-identical to the
    batch path's at any [-j]. *)

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
}
(** Everything aggregation and the JSONL sink need from one job,
    extracted on the worker before its arena is rebooted — the full
    result is never retained. *)

val jsonl_of_summary : job_summary -> string
(** One JSON object (no trailing newline) for the on-disk result
    sink.  Deterministic: no wall-clock fields.  Jobs that carried a
    trace id append ["trace"] (16-digit hex) and ["span"] fields;
    traceless jobs keep the historic byte-exact shape. *)

type tally
(** Incremental campaign aggregate: the deterministic counter half of
    {!stats} plus the distinct-detection-site set.  Mutable;
    single-owner (the {!run_stream} pump). *)

val tally : unit -> tally
val tally_add : tally -> job_summary -> unit
val tally_jobs : tally -> int

val tally_sites : tally -> int list
(** Distinct alert pcs seen, ascending — the coverage-style fitness
    signal of a generative campaign. *)

val tally_stats : ?wall_seconds:float -> tally -> stats
(** The accumulated aggregate as a {!stats}.  Counters, detections and
    label order are byte-identical to what {!run} would have computed
    over the same jobs; the wall/concurrency histograms are absent
    (they cannot survive a checkpoint round-trip). *)

type tally_dump = {
  d_jobs : int;
  d_failed : int;
  d_violations : int;
  d_instructions : int;
  d_syscalls : int;
  d_detections : (string * int) list;
  d_counters : (string * (string * int) list) list;
  d_sites : int list;
}
(** Persistence image of a {!tally}: ints and strings only, so a dump
    round-trips byte-exactly through the checkpoint manifest. *)

val dump_tally : tally -> tally_dump
val load_tally : tally_dump -> tally

val run_stream :
  ?domains:int ->
  ?log:Ptaint_obs.Log.t ->
  ?job_timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?window:int ->
  ?start:int ->
  ?tally:tally ->
  ?on_result:(job_summary -> unit) ->
  ?on_progress:(cursor:int -> tally -> unit) ->
  Job.t Seq.t ->
  tally * int
(** Stream the sequence through a persistent pool of [domains]
    workers and fold each completion into the tally; returns the
    tally and the final cursor (index one past the last job folded).

    At most [window] jobs (default 4× the worker count) are admitted
    beyond the flush cursor, which bounds both queue depth and the
    reorder buffer.  [on_result] is called once per job, in
    submission order — the JSONL sink hook.  [on_progress] is called
    with the new contiguous cursor after every flush — the checkpoint
    hook: every job with index < cursor is folded into the tally, no
    job ≥ cursor is.

    Resume: pass [start] (the manifest cursor), a [tally] rebuilt via
    {!load_tally}, and a sequence beginning at job [start].

    Workers share built programs and boot images through an internal
    content-hash cache and boot via the domain arena, which rewinds
    only the guest pages the previous job wrote or mapped when the
    image repeats.  [job_timeout]/[retries]/[backoff] behave as in
    {!run}. *)

val job_counters : job_result -> (string * int) list
(** The deterministic counter deltas this job contributes to its
    policy label's metrics registry, in registration order — the unit
    the daemon streams per finished job.  Merging every job's deltas
    into per-label registries in submission order rebuilds
    {!stats.metrics}'s counters exactly; {!metrics_of} is defined as
    that merge. *)

val failure_counters : failure_kind -> (string * int) list
(** The deltas a first-attempt {!Failed} job contributes —
    [[("jobs", 1); (kind, 1)]] with the {!job_counters} kind key.
    This is the requeue-accounting unit for supervisors that must
    synthesize a typed failure for a job they killed (dead worker,
    blown deadline, exhausted redeliveries): emitting exactly this
    shape keeps streamed tallies mergeable with cooperative-path
    results. *)

val metrics_table_of :
  ?timings:bool -> (string * Ptaint_obs.Metrics.t) list -> string
(** {!metrics_table} over bare per-label registries — for clients
    that rebuilt them from streamed {!job_counters} deltas. *)

val metrics_table : ?timings:bool -> stats -> string
(** Render {!stats.metrics} as an aligned table.  By default only the
    deterministic counter rows appear, so the output is identical
    across [~domains] settings and can be diffed in CI;
    [~timings:true] adds the wall-clock/concurrency histogram rows. *)

val pp_stats : Format.formatter -> stats -> unit
(** One line: deterministic aggregates first, wall time bracketed last
    so batch outputs can be compared "modulo timings". *)
