(* ptaintd: run the pointer-taintedness detector as a persistent
   service.

     ptaintd --socket /tmp/ptaintd.sock -j 4
     ptaint-run --connect /tmp/ptaintd.sock victim.c exploit.c
     ptaint-run --connect /tmp/ptaintd.sock --daemon-stats

   The daemon accepts detection jobs from many concurrent clients
   over a Unix-domain socket, runs them on a persistent pool of
   worker domains, serves repeat submissions from a content-hash
   snapshot cache, and streams results back as typed events.
   SIGTERM/SIGINT drain gracefully: in-flight jobs finish, results
   flush, then the process exits 0.

   Telemetry: --log/--log-level/--log-format drive the structured
   lifecycle log (logfmt or JSON lines, stderr by default),
   --metrics-sock exposes a Prometheus scrape endpoint, and --trace
   writes a Chrome trace of every completed job (pid 2) at drain. *)

open Cmdliner
module Server = Ptaint_daemon.Server
module Log = Ptaint_obs.Log

let serve socket domains max_queue max_inflight cache job_timeout quiet
    log_file log_level log_format metrics_sock trace_path isolate workers =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let level =
    match Log.level_of_string log_level with
    | Ok l -> l
    | Error m -> Printf.eprintf "ptaintd: %s\n" m; exit 2
  in
  let format =
    match Log.format_of_string log_format with
    | Ok f -> f
    | Error m -> Printf.eprintf "ptaintd: %s\n" m; exit 2
  in
  let log =
    if quiet && log_file = None then None
    else
      let sink =
        match log_file with
        | Some path -> Log.file_sink ~max_bytes:(64 * 1024 * 1024) path
        | None -> Log.channel_sink stderr
      in
      Some (Log.create ~level ~format sink)
  in
  let cfg =
    { (Server.default_config ~socket_path:socket) with
      Server.domains;
      max_queue;
      max_inflight;
      cache_capacity = cache;
      job_timeout;
      log;
      metrics_sock;
      trace_path;
      isolate;
      workers }
  in
  let close_log () = match log with Some l -> Log.close l | None -> () in
  match Server.create cfg with
  | exception Invalid_argument m ->
    prerr_endline m;
    close_log ();
    2
  | exception Unix.Unix_error (err, fn, arg) ->
    Printf.eprintf "ptaintd: cannot bind %s: %s (%s %s)\n" socket
      (Unix.error_message err) fn arg;
    close_log ();
    2
  | t ->
    let stop _ = Server.shutdown t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    (match log with
     | Some l ->
       Log.info l ~src:"ptaintd" "listening"
         [ Log.str "socket" socket;
           Log.str "backend" (if isolate then "isolated" else "in-process");
           Log.int "workers"
             (if isolate then (match workers with Some n -> max 1 n | None -> 2)
              else
                match domains with
                | Some d -> d
                | None -> Ptaint_pool.Pool.recommended_domains ()) ]
     | None -> ());
    Server.serve t;
    close_log ();
    0

let socket_arg =
  Arg.(value & opt string "ptaintd.sock" & info [ "socket"; "s" ] ~docv:"PATH"
         ~doc:"Unix-domain socket to listen on.  A stale socket file is replaced; \
               anything else at $(docv) is refused.")

let domains_arg =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains (default: all cores).")

let queue_arg =
  Arg.(value & opt int 256 & info [ "queue" ] ~docv:"N"
         ~doc:"Server-wide bound on admitted-but-unfinished jobs; submissions beyond it \
               are rejected with backpressure, never queued unboundedly.")

let inflight_arg =
  Arg.(value & opt int 32 & info [ "max-inflight" ] ~docv:"N"
         ~doc:"Per-client quota of in-flight jobs.")

let cache_arg =
  Arg.(value & opt int 64 & info [ "cache" ] ~docv:"N"
         ~doc:"Image cache capacity: assembled programs and boot snapshots kept for \
               repeat submissions (LRU).  The capacity applies per process: with \
               $(b,--isolate) every worker keeps its own cache of $(docv) images, \
               so image memory is bounded by $(b,--workers) x $(docv) images, and \
               only the hit and miss counts are reported for those caches.")

let job_timeout_arg =
  Arg.(value & opt (some float) None & info [ "job-timeout" ] ~docv:"SECONDS"
         ~doc:"Default wall-clock watchdog per job; a job's own timeout overrides it.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ]
         ~doc:"No stderr log.  An explicit $(b,--log) file still receives records.")

let log_arg =
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
         ~doc:"Write the structured lifecycle log to $(docv) (size-rotated at 64 MiB) \
               instead of stderr.")

let log_level_arg =
  Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL"
         ~doc:"Minimum level: debug, info, warn or error.  $(b,debug) adds \
               per-admission records.")

let log_format_arg =
  Arg.(value & opt string "logfmt" & info [ "log-format" ] ~docv:"FMT"
         ~doc:"Record rendering: $(b,logfmt) (key=value) or $(b,json) (one object \
               per line).")

let metrics_sock_arg =
  Arg.(value & opt (some string) None & info [ "metrics-sock" ] ~docv:"PATH"
         ~doc:"Serve Prometheus text-format metrics on a second Unix-domain socket: \
               each connection receives one scrape and is closed.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace of every completed job to $(docv) at drain \
               (pid 2, one track per worker domain; merges with client traces).")

let isolate_arg =
  Arg.(value & flag & info [ "isolate" ]
         ~doc:"Run jobs in forked worker processes under a supervision tree \
               instead of in-process domains.  A crashing, wedged or killed \
               worker is contained: its job is redelivered to a survivor (or \
               synthesized into a typed failure after the delivery budget), \
               the worker respawned with jittered backoff, and the daemon \
               keeps serving throughout.")

let workers_arg =
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N"
         ~doc:"Worker processes under $(b,--isolate) (default 2).  Ignored \
               without $(b,--isolate); use $(b,-j) to size the in-process pool.")

let cmd =
  let doc = "pointer-taintedness detection daemon" in
  Cmd.v (Cmd.info "ptaintd" ~doc)
    Term.(const serve $ socket_arg $ domains_arg $ queue_arg $ inflight_arg $ cache_arg
          $ job_timeout_arg $ quiet_arg $ log_arg $ log_level_arg $ log_format_arg
          $ metrics_sock_arg $ trace_arg $ isolate_arg $ workers_arg)

let () = exit (Cmd.eval' cmd)
