(** ptaintd: the persistent detection service.

    A single-threaded [select] event loop owns a Unix-domain listen
    socket and every client connection; detection jobs are admitted
    through per-client and server-wide bounds, scheduled onto a
    persistent {!Ptaint_pool.Pool.service} of worker domains, run
    through the campaign engine's containment machinery
    ({!Ptaint_campaign.Campaign.run_job}) with boots served from the
    shared image {!Cache}, and streamed back as
    {!Proto.response} frames ([Accepted], [Started],
    [Finished]/[Job_failed] with {!Ptaint_campaign.Campaign.job_counters}
    deltas).

    Two execution backends share that loop.  The default runs jobs on
    in-process worker domains (fast, shared cache).  With [isolate]
    set, jobs run in forked worker {e processes} under a
    {!Supervisor} tree instead: a crashing, wedged or SIGKILLed
    worker is contained, its job redelivered or synthesized into a
    typed failure, and the worker respawned with backoff — the daemon
    keeps serving throughout.

    Robustness properties, exercised by [test_daemon] and
    [test_supervisor]:
    - a malformed, oversized or truncated-forever frame costs that
      one client its connection ([Error_frame], close) and nothing
      else;
    - a client disconnecting mid-job never wedges accounting — its
      results are dropped, its jobs still count as completed;
    - {!shutdown} (the SIGTERM path) is a graceful drain: stop
      listening, reject new submissions, finish all admitted jobs,
      flush outboxes best-effort, return from {!serve};
    - under [isolate], killing a worker mid-campaign leaves the final
      batch counters byte-identical to an undisturbed run (bounded
      redelivery preserves results; only a twice-killed job turns
      into a typed [crashed]/[timeout] failure);
    - a [spec_idem]-keyed job resubmitted after a dropped connection
      runs at most once — the retry attaches to the live admission or
      replays the recorded terminal event;
    - a [spec_deadline] the queue cannot meet (duration histogram ×
      queue depth) is shed at admission with a typed [Rejected]. *)

type config = {
  socket_path : string;
  domains : int option;  (** worker domains; default {!Ptaint_pool.Pool.recommended_domains} *)
  max_queue : int;  (** server-wide bound on jobs admitted and unfinished *)
  max_inflight : int;  (** per-connection admission quota *)
  cache_capacity : int;
      (** image cache entries, per process: the in-process backend
          shares one cache, each isolated worker keeps its own, so
          image memory under isolation is bounded by workers x this.
          Only the in-process cache reports its entries, evictions and
          capacity; hits and misses are counted for both backends *)
  job_timeout : float option;
      (** default per-job watchdog (seconds); a job's own timeout wins *)
  banner : string;  (** echoed in [Hello_ok] *)
  log : Ptaint_obs.Log.t option;
      (** structured lifecycle log: connections, admissions,
          rejections, protocol errors, job completions (with trace
          correlation ids), drain progress *)
  metrics_sock : string option;
      (** when set, a second Unix-domain socket serving one-shot
          Prometheus scrapes: connect, read the text exposition, EOF *)
  trace_path : string option;
      (** when set, a Chrome trace of every completed job is written
          here at drain — spans on pid 2, one track per worker domain,
          absolute epoch-microsecond timestamps, so a client-side
          trace (pid 1) of the same jobs merges into one timeline *)
  isolate : bool;
      (** run jobs in forked worker processes under a supervision
          tree instead of in-process domains: crash containment,
          preemptive deadline enforcement, automatic respawn.
          Superblock telemetry is unavailable in this mode (the
          counters live in the worker's address space). *)
  workers : int option;  (** worker processes when [isolate]; default 2 *)
}

val default_config : socket_path:string -> config
(** max_queue 256, max_inflight 32, cache 64 entries, no default
    timeout, no log, no metrics socket, no trace, no isolation. *)

type t

val create : config -> t
(** Bind the socket (replacing a stale socket file; refusing to
    replace a non-socket), spawn the worker pool — or, under
    [isolate], fork the worker fleet (so call it before spawning any
    domain in this process).  Raises [Unix.Unix_error] on bind/listen
    failure. *)

val serve : t -> unit
(** Run the event loop until {!shutdown}.  Returns after the drain
    completes; the worker pool is stopped and every fd closed. *)

val shutdown : t -> unit
(** Request a graceful drain.  Safe from signal handlers and other
    domains; idempotent. *)

val stats : t -> (string * int) list
(** The daemon counter snapshot served to [Stats] requests (cache
    hits/misses, jobs submitted/completed/rejected/in flight, client
    counts).  Cache hits and misses are counted per finished job from
    its terminal event's cache flag, on either backend; under
    [isolate] a job whose worker failed it carries no flag and counts
    as a miss.  Loop-owned state: call from the serving domain only —
    other processes should ask over the socket. *)

val prometheus : t -> string
(** The full telemetry snapshot served to [Stats_full] requests and
    the metrics socket: jobs by outcome, queue depth, per-client
    inflight, cache traffic, byte counters, event-loop lag and job
    latency histograms, in Prometheus text exposition format 0.0.4.
    Loop-owned state, same caveat as {!stats}. *)

val worker_pids : t -> int list
(** Live worker process pids under [isolate] (what a chaos harness
    SIGKILLs); [[]] for the in-process backend. *)
