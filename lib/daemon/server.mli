(** ptaintd: the persistent detection service.

    A single-threaded [select] event loop owns a Unix-domain listen
    socket and every client connection; detection jobs are admitted
    through per-client and server-wide bounds, scheduled onto a
    persistent {!Ptaint_pool.Pool.service} of worker domains, run
    through the campaign engine's containment machinery
    ({!Worker.run_job}) with boots served from the shared
    {!Ptaint_campaign.Campaign.Images} cache, and streamed back as
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
      replays the recorded terminal event.

    Every count lives once, in the daemon's metrics registry, and the
    registry is the daemon's one telemetry view: a scrape refreshes
    the live gauges (queue depth, clients connected, workers, and
    in-process the image cache's entries, evictions and capacity) and
    renders the whole registry as Prometheus text, served to a
    [Stats_full] request and on the metrics socket alike.  Both
    backends account a finished job through one record
    ({!Worker.done_job}): it is a cache hit only if it finished from a
    cached image, so [ptaintd_cache_hits] plus [ptaintd_cache_misses]
    equal [ptaintd_jobs_total]. *)

type config = {
  socket_path : string;
  workers : int option;
      (** worker domains in-process, default
          [Domain.recommended_domain_count]; worker processes under
          [isolate], default 2 *)
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
