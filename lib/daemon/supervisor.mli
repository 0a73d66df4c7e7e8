(** ptaintd supervision tree — process-isolated workers with crash
    containment, preemptive deadlines, and bounded redelivery.

    The supervisor forks [workers] {!Worker} processes and ships jobs
    to them over {!Proto}-framed pipes.  A lone worker holds a window
    of up to 8 jobs, run in order: the head of the window is the
    running job, the rest are already down the pipe, so the worker
    goes from one job to the next without a round trip.  A dispatched
    job cannot be taken back, so in a pool of several workers each
    holds only its running job, and a job goes to the first idle one:
    it never waits behind a long job while a peer idles.  The
    supervisor lives entirely on the daemon's event
    loop and never blocks it: the down pipes are non-blocking, and
    what a full pipe refuses waits until the pipe is writable.  The
    server adds {!fds} to its [select] sets, routes ready fds through
    {!handle_ready}, and calls {!tick} every loop iteration — nothing
    here spawns a thread or takes a lock.

    A worker is declared sick by pipe EOF (crash, SIGKILL), by
    heartbeat silence past 2 s with an empty window (SIGSTOP, wedged
    runtime), or by a blown deadline of the window's head — the job's
    timeout (60 s for a job with none) plus 2 s of grace from when it
    became the head, so the in-worker cooperative watchdog always
    gets the first shot at a typed [Timeout].  Sick workers are
    SIGKILLed, reaped and respawned with jittered exponential backoff
    (50 ms doubling to a 2 s cap).  Their running job is redelivered
    to a surviving worker, two deliveries in all, so an innocent job
    disturbed by a worker death completes normally and final counters
    stay byte-identical to an undisturbed run; the jobs queued behind
    it never ran, so they are requeued ahead of newer work without
    spending a delivery.  A job that exhausts its deliveries is
    synthesized into the typed failure the cooperative path would
    have produced, with {!Ptaint_campaign.Campaign.failure_counters}
    deltas.  The window and these timings are constants.

    Metric families maintained in [metrics]:
    [ptaintd_worker_restarts_total{reason}] (crash/heartbeat/deadline),
    [ptaintd_redeliveries_total], [ptaintd_requeues_total] (queued
    jobs put back from a dead worker's window),
    [ptaintd_heartbeat_misses_total],
    [ptaintd_jobs_synthesized_total{kind}]. *)

type config = {
  workers : int;
  job_timeout : float option;  (** default watchdog, forwarded to workers *)
  cache_capacity : int;  (** per-worker image cache entries *)
  log : Ptaint_obs.Log.t option;
  metrics : Ptaint_obs.Metrics.t;
  close_in_child : unit -> Unix.file_descr list;
      (** parent-side fds a fresh fork must close (listen socket, wake
          pipe, live connections); re-evaluated at every fork *)
  emit : cid:int -> Proto.event -> Worker.done_job option -> unit;
      (** event sink, called on the event-loop thread with server job
          ids: [Started] with [None] once per delivery, when the job
          becomes the head of a worker's window, and every terminal
          event with its {!Worker.done_job} record *)
}

type t

val create : config -> t
(** Fork the initial worker fleet.  Must run before any domain is
    spawned in this process (fork and domains do not mix). *)

val submit :
  t -> id:int -> cid:int -> label:string -> trace:(int * int) option ->
  Proto.job_spec -> unit
(** Queue one admitted job; it is dispatched at once to the first
    live worker with room in its window, when one exists.  [label] is the canonical policy
    label used for synthesized failures, [id] the server-side job id
    every event of the job carries. *)

val fds : t -> Unix.file_descr list * Unix.file_descr list
(** The server's [select] sets: live workers' up pipes to read, and
    the down pipes with unwritten requests to write. *)

val handle_ready : t -> Unix.file_descr -> unit
(** Serve one fd [select] reported ready.  A readable up pipe is
    drained: terminal events are forwarded (ids rewritten), heartbeats
    updated, EOF/garble deaths detected.  A writable down pipe takes
    what it can of the pending requests.  Any other fd is ignored, so
    the server may hand it every ready fd. *)

val tick : t -> now:float -> unit
(** Periodic maintenance: blow head deadlines, flag heartbeat misses,
    respawn workers whose backoff elapsed, pump the pending queue.
    Call once per event-loop iteration. *)

val size : t -> int

val stop : t -> unit
(** Send every worker [Quit], wait up to 2 s each, SIGKILL stragglers,
    reap everything.  Call after the drain — in-flight jobs should
    already have completed. *)
