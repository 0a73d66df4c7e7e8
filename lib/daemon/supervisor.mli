(** ptaintd supervision tree — process-isolated workers with crash
    containment, preemptive deadlines, and bounded redelivery.

    The supervisor forks [workers] {!Worker} processes and ships jobs
    to them over {!Proto}-framed pipes, one dispatch in flight per
    worker.  It lives entirely on the daemon's event loop: the server
    adds {!fds} to its [select] read set, routes readable fds through
    {!handle_readable}, and calls {!tick} every loop iteration —
    nothing here spawns a thread or takes a lock.

    A worker is declared sick by pipe EOF (crash, SIGKILL), by idle
    heartbeat silence past 2 s (SIGSTOP, wedged runtime), or by a
    blown dispatch deadline — the job's timeout (60 s for a job with
    none) plus 2 s of grace, so the in-worker cooperative watchdog
    always gets the first shot at a typed [Timeout].  Sick workers
    are SIGKILLed, reaped and respawned with jittered exponential
    backoff (50 ms doubling to a 2 s cap); their in-flight job is
    redelivered to a surviving worker, two deliveries in all, so an
    innocent job disturbed by a worker death completes normally and
    final counters stay byte-identical to an undisturbed run.  A job
    that exhausts its deliveries is synthesized into the typed
    failure the cooperative path would have produced, with
    {!Ptaint_campaign.Campaign.failure_counters} deltas.  These
    timings are constants.

    Metric families maintained in [metrics]:
    [ptaintd_worker_restarts_total{reason}] (crash/heartbeat/deadline),
    [ptaintd_redeliveries_total], [ptaintd_heartbeat_misses_total],
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
          ids: [Started] with [None] once per delivery, as soon as its
          [Submit] is down the worker's pipe, and every terminal event
          with its {!Worker.done_job} record *)
}

type t

val create : config -> t
(** Fork the initial worker fleet.  Must run before any domain is
    spawned in this process (fork and domains do not mix). *)

val submit :
  t -> id:int -> cid:int -> label:string -> trace:(int * int) option ->
  Proto.job_spec -> unit
(** Queue one admitted job; it is dispatched to an idle worker
    immediately when one exists.  [label] is the canonical policy
    label used for synthesized failures, [id] the server-side job id
    every event of the job carries. *)

val fds : t -> Unix.file_descr list
(** Live workers' up-pipe fds for the server's [select] read set. *)

val handle_readable : t -> Unix.file_descr -> unit
(** Drain one readable worker pipe: forward terminal events (ids
    rewritten),
    update heartbeats, detect EOF/garble deaths.  Any other fd is
    ignored, so the server may hand it every readable fd. *)

val tick : t -> now:float -> unit
(** Periodic maintenance: blow deadlines, flag heartbeat misses,
    respawn workers whose backoff elapsed, pump the pending queue.
    Call once per event-loop iteration. *)

val size : t -> int

val stop : t -> unit
(** Send every worker [Quit], wait up to 2 s each, SIGKILL stragglers,
    reap everything.  Call after the drain — in-flight jobs should
    already have completed. *)
