(* ptaintd server: a single-threaded event loop over a Unix-domain
   socket, scheduling detection jobs onto a persistent Pool.service of
   worker domains.

   Concurrency discipline — three worlds, narrow bridges:

   - The EVENT LOOP owns every connection (buffers, admission
     counters, the listen socket).  It never blocks: [select] with
     non-blocking fds, partial reads accumulated per connection until
     {!Proto} yields a frame.
   - WORKER DOMAINS own job execution.  A worker touches only the
     image cache (internally locked) and the completion queue; it
     never sees a file descriptor.
   - The COMPLETION QUEUE (mutex + self-pipe) is the only bridge
     back: workers push ready-to-send responses, write one byte into
     the self-pipe, and the loop drains both on wakeup.  If the
     client vanished mid-job the response is dropped on the floor —
     job accounting lives in the queue entries, not the connection,
     so a mid-job disconnect can never wedge the drain logic.

   Hostile clients are a protocol concern, not a scheduling one: a
   half-frame slowloris just sits in its buffer, an oversized or
   garbled frame earns an [Error_frame] and a close (length-prefixed
   framing cannot resynchronise), and admission control (global queue
   bound + per-client inflight quota) answers [Rejected] instead of
   queueing unboundedly.  SIGTERM-driven shutdown is a drain: stop
   accepting, reject new submissions, finish everything in flight,
   flush every outbox, then return. *)

module Campaign = Ptaint_campaign.Campaign
module Job = Ptaint_campaign.Job
module Log = Ptaint_obs.Log
module Metrics = Ptaint_obs.Metrics

type config = {
  socket_path : string;
  domains : int option;
  max_queue : int;  (** jobs admitted but not yet finished, server-wide *)
  max_inflight : int;  (** per-connection admission quota *)
  cache_capacity : int;
  job_timeout : float option;  (** default watchdog; a job's own wins *)
  banner : string;
  log : Ptaint_obs.Log.t option;  (** structured lifecycle log *)
  metrics_sock : string option;
      (** scrape endpoint: connect, read Prometheus text, EOF *)
  trace_path : string option;
      (** Chrome trace of completed jobs, written at drain (pid 2) *)
  isolate : bool;
      (** run jobs in forked worker processes under a supervision
          tree instead of in-process domains *)
  workers : int option;  (** worker processes when [isolate]; default 2 *)
}

let default_config ~socket_path =
  { socket_path; domains = None; max_queue = 256; max_inflight = 32;
    cache_capacity = 64; job_timeout = None; banner = "ptaintd"; log = None;
    metrics_sock = None; trace_path = None; isolate = false; workers = None }

type conn = {
  fd : Unix.file_descr;
  cid : int;
  inbox : Proto.request Proto.reader;
  out : Proto.outbox;
  mutable inflight : int;
  mutable close_after_flush : bool;
      (* Quit, or a protocol error: flush the outbox, then hang up *)
  mutable broken : bool;  (* stop parsing input; stream unsalvageable *)
}

(* What the loop needs to account for a finished job — metrics,
   structured log line, Chrome span — without re-parsing the response
   frame it is about to forward. *)
type job_info = {
  ji_id : int;
  ji_tag : string;
  ji_outcome : string;  (* outcome class or failure kind; metric label *)
  ji_cache_hit : bool;
  ji_trace : (int * int) option;
  ji_t0 : float;
  ji_t1 : float;
  ji_domain : int;  (* worker domain id; Chrome track *)
  ji_superblock : (string * int) list;
      (* translation-tier event counts (promoted / chain_hit / ...) *)
}

type completion = {
  c_cid : int;
  c_resp : Proto.response;
  c_terminal : bool;  (* finishes one admitted job *)
  c_info : job_info option;  (* terminal completions only *)
}

(* Execution backend: in-process worker domains behind a Pool.service
   (fast, shared cache) or forked worker processes behind a
   supervision tree (--isolate: crash containment, preemptive
   deadlines).  Two-phase init — the supervisor's callbacks close
   over [t], so the field is filled right after the record exists and
   never observed empty outside [create]. *)
type backend =
  | In_process of Ptaint_pool.Pool.service * Cache.t
  | Isolated of Supervisor.t  (* each worker keeps its own cache *)

(* Idempotency: a key the server has seen maps to the live admission
   (so a resubmit attaches instead of re-running) or to the original
   terminal event (so a resubmit replays it verbatim). *)
type idem_state =
  | Idem_pending of { id : int; mutable cid : int }
  | Idem_done of { id : int; event : Proto.event }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  wake_rd : Unix.file_descr;
  wake_wr : Unix.file_descr;
  mutable backend : backend option;
  mutable cache_hits : int;  (* tallied from terminal events *)
  mutable cache_misses : int;
  conns : (int, conn) Hashtbl.t;
  by_fd : (Unix.file_descr, conn) Hashtbl.t;  (* the same conns, by fd *)
  mutable next_cid : int;
  mutable next_job : int;
  mutable admitted : int;  (* queued + running, server-wide *)
  stopping : bool Atomic.t;
  cq_mu : Mutex.t;
  cq : completion Queue.t;
  (* daemon-level counters, loop-owned *)
  mutable jobs_submitted : int;
  mutable jobs_rejected : int;
  mutable jobs_completed : int;
  mutable protocol_errors : int;
  mutable clients_total : int;
  wake_buf : Bytes.t;  (* loop-owned sink for self-pipe bytes *)
  metrics : Metrics.t;  (* loop-owned; workers never touch it *)
  metrics_fd : Unix.file_descr option;
  mutable spans : job_info list;  (* newest first, for the drain-time trace *)
  mutable spans_count : int;
  mutable spans_dropped : int;
  idem : (string, idem_state) Hashtbl.t;
  idem_order : string Queue.t;  (* FIFO eviction of finished keys *)
  idem_of_job : (int, string) Hashtbl.t;  (* live job id -> its key *)
  routes : (int, int) Hashtbl.t;  (* job id -> rerouted cid, idem resubmits *)
}

let max_idem_entries = 4096

let backend_exn t =
  match t.backend with
  | Some b -> b
  | None -> invalid_arg "ptaintd: backend used before init"

let worker_count t =
  match backend_exn t with
  | In_process (pool, _) -> Ptaint_pool.Pool.service_size pool
  | Isolated sup -> Supervisor.size sup

let log_src = "ptaintd"

(* These take ready-built fields, so they serve the per-connection and
   rare paths.  The per-job lines in [admit] and [account_finished]
   match on the log themselves and build their fields only when the
   line will be written: a daemon without a log pays one match per
   job. *)
let linfo t msg fields =
  match t.cfg.log with Some l -> Log.info l ~src:log_src msg fields | None -> ()

let lwarn t msg fields =
  match t.cfg.log with Some l -> Log.warn l ~src:log_src msg fields | None -> ()

let ldebug t msg fields =
  match t.cfg.log with Some l -> Log.debug l ~src:log_src msg fields | None -> ()

let trace_fields = function
  | None -> []
  | Some (tid, span) -> [ Log.str "trace" (Log.hex_id tid); Log.int "span" span ]

(* Metric helpers — get-or-create is a hash lookup, cheap enough to
   do at the call site and keeps hot counters next to their events. *)
let mcount t ?labels name = Metrics.inc (Metrics.counter t.metrics ?labels name)
let mobserve t name v = Metrics.observe (Metrics.histogram t.metrics name) v

let bind_unix_listener path ~backlog =
  (match Unix.lstat path with
   | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
   | _ -> invalid_arg ("ptaintd: refusing to replace non-socket " ^ path)
   | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd backlog;
  fd

(* Only ever read by [Unix.write], so one byte serves every domain. *)
let wake_byte = Bytes.make 1 '!'

let wake t =
  (* best effort: a full pipe already guarantees a wakeup *)
  try ignore (Unix.write t.wake_wr wake_byte 0 1) with Unix.Unix_error _ -> ()

let shutdown t =
  Atomic.set t.stopping true;
  wake t

(* --- completion bridge (worker side) --------------------------------- *)

let push_completion t c =
  Mutex.lock t.cq_mu;
  Queue.push c t.cq;
  Mutex.unlock t.cq_mu;
  wake t

(* Robustness families must render in every scrape, including a
   freshly started daemon's — chaos harnesses assert on them at zero.
   The registry only renders created metrics, so create them now. *)
let preregister_metrics m =
  List.iter
    (fun reason ->
      ignore
        (Metrics.counter m ~labels:[ ("reason", reason) ]
           "ptaintd_worker_restarts_total"))
    [ "crash"; "heartbeat"; "deadline" ];
  ignore (Metrics.counter m "ptaintd_redeliveries_total");
  ignore (Metrics.counter m "ptaintd_heartbeat_misses_total");
  ignore
    (Metrics.counter m ~labels:[ ("reason", "deadline") ]
       "ptaintd_jobs_shed_total");
  ignore (Metrics.counter m "ptaintd_idem_replays_total")

let create (cfg : config) =
  let listen_fd = bind_unix_listener cfg.socket_path ~backlog:64 in
  let metrics_fd =
    Option.map (fun p -> bind_unix_listener p ~backlog:16) cfg.metrics_sock
  in
  let wake_rd, wake_wr = Unix.pipe () in
  Unix.set_nonblock wake_rd;
  let metrics = Metrics.create () in
  preregister_metrics metrics;
  let t =
    { cfg;
      listen_fd;
      wake_rd;
      wake_wr;
      backend = None;
      cache_hits = 0;
      cache_misses = 0;
      conns = Hashtbl.create 16;
      by_fd = Hashtbl.create 16;
      next_cid = 1;
      next_job = 1;
      admitted = 0;
      stopping = Atomic.make false;
      cq_mu = Mutex.create ();
      cq = Queue.create ();
      jobs_submitted = 0;
      jobs_rejected = 0;
      jobs_completed = 0;
      protocol_errors = 0;
      clients_total = 0;
      wake_buf = Bytes.create 256;
      metrics;
      metrics_fd;
      spans = [];
      spans_count = 0;
      spans_dropped = 0;
      idem = Hashtbl.create 64;
      idem_order = Queue.create ();
      idem_of_job = Hashtbl.create 64;
      routes = Hashtbl.create 16 }
  in
  (if cfg.isolate then begin
     (* Fork the worker fleet before any domain exists in this
        process — fork and the multicore runtime do not mix, which is
        also why the isolated backend never creates a Pool.service. *)
     let emit ~cid resp ~terminal ~info =
       let c_info =
         Option.map
           (fun (i : Supervisor.done_info) ->
             { ji_id = i.Supervisor.i_id; ji_tag = i.i_tag;
               ji_outcome = i.i_outcome; ji_cache_hit = i.i_cache_hit;
               ji_trace = i.i_trace; ji_t0 = i.i_t0; ji_t1 = i.i_t1;
               ji_domain = i.i_worker; ji_superblock = [] })
           info
       in
       push_completion t { c_cid = cid; c_resp = resp; c_terminal = terminal; c_info }
     in
     let close_in_child () =
       t.listen_fd :: t.wake_rd :: t.wake_wr
       :: (match t.metrics_fd with Some fd -> [ fd ] | None -> [])
       @ Hashtbl.fold (fun _ c acc -> c.fd :: acc) t.conns []
     in
     let sup_cfg =
       { (Supervisor.default_config ~emit) with
         Supervisor.workers = (match cfg.workers with Some n -> max 1 n | None -> 2);
         job_timeout = cfg.job_timeout;
         cache_capacity = cfg.cache_capacity;
         log = cfg.log;
         metrics = Some metrics;
         close_in_child }
     in
     t.backend <- Some (Isolated (Supervisor.create sup_cfg))
   end
   else
     t.backend <-
       Some
         (In_process
            ( Ptaint_pool.Pool.service ?domains:cfg.domains (),
              Cache.create ~capacity:cfg.cache_capacity () )));
  t

(* Runs on a worker domain (in-process backend only; the isolated
   backend's equivalent lives in {!Worker} + {!Supervisor}).  Every
   path pushes exactly one terminal completion — that invariant is
   what lets the loop's drain logic count jobs instead of trusting
   connections.  The job boots through the domain's arena, so its
   result is reduced to the wire event and the superblock counters
   here, before this domain runs its next job. *)
let run_job_task t cache ~cid ~id (spec : Job.t) () =
  let t0 = Unix.gettimeofday () in
  push_completion t
    { c_cid = cid; c_resp = Proto.Job_event (Proto.Started { id });
      c_terminal = false; c_info = None };
  let result =
    match
      (* Build-or-hit outside the classification net is wrong: a
         malformed source must fail the job, not the worker.  So the
         cache consult itself is guarded; on a toolchain error we fall
         through to a bare run whose rebuild fails identically and is
         classified ([Loader_error]) by the campaign machinery. *)
      match Cache.obtain cache spec with
      | entry, hit -> `Cached (entry, hit)
      | exception _ -> `Build_failed
    with
    | `Cached (entry, hit) ->
      let run_sim ~deadline config _program =
        Ptaint_sim.Sim.run_template_arena ?deadline ~config entry.Cache.template
      in
      (Campaign.run_job ?job_timeout:t.cfg.job_timeout ~run_sim
         ~program:entry.Cache.program spec, hit)
    | `Build_failed ->
      (Campaign.run_job ?job_timeout:t.cfg.job_timeout spec, false)
  in
  let r, cache_hit = result in
  let ev = Worker.event_of_job_result ~id ~job:spec ~cache_hit r in
  let resp = Proto.Job_event ev in
  let outcome = Worker.outcome_of_event ev in
  let superblock =
    match r.Campaign.status with
    | Campaign.Finished res ->
      Ptaint_cpu.Machine.superblock_counters res.Ptaint_sim.Sim.machine
    | Campaign.Failed _ -> []
  in
  let info =
    { ji_id = id; ji_tag = spec.Job.tag; ji_outcome = outcome;
      ji_cache_hit = cache_hit; ji_trace = spec.Job.trace;
      ji_t0 = t0; ji_t1 = Unix.gettimeofday ();
      ji_domain = (Domain.self () :> int);
      ji_superblock = superblock }
  in
  push_completion t { c_cid = cid; c_resp = resp; c_terminal = true; c_info = Some info }

(* --- event loop (connection side) ------------------------------------ *)

let send conn resp = Proto.add_response conn.out resp

let disconnect t conn =
  Hashtbl.remove t.conns conn.cid;
  Hashtbl.remove t.by_fd conn.fd;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  ldebug t "client disconnected" [ Log.int "cid" conn.cid ]

let reject t conn ~tag reason =
  t.jobs_rejected <- t.jobs_rejected + 1;
  mcount t "ptaintd_jobs_rejected_total";
  lwarn t "job rejected"
    [ Log.int "cid" conn.cid; Log.str "tag" tag; Log.str "reason" reason ];
  send conn (Proto.Rejected { tag; reason })

(* Image-cache counters.  Hits and misses are tallied from the
   terminal events, the same way for both backends.  The table's own
   size, evictions and capacity are reported only in-process: isolated
   workers keep their caches to themselves. *)
let cache_counters t =
  ("daemon/cache-hit", t.cache_hits)
  :: ("daemon/cache-miss", t.cache_misses)
  :: (match backend_exn t with
      | In_process (_, cache) -> Cache.counters cache
      | Isolated _ -> [])

let daemon_counters t =
  cache_counters t
  @ [ ("daemon/jobs-submitted", t.jobs_submitted);
      ("daemon/jobs-completed", t.jobs_completed);
      ("daemon/jobs-rejected", t.jobs_rejected);
      ("daemon/jobs-inflight", t.admitted);
      ("daemon/protocol-errors", t.protocol_errors);
      ("daemon/clients-now", Hashtbl.length t.conns);
      ("daemon/clients-total", t.clients_total);
      ("daemon/workers", worker_count t) ]

(* One telemetry snapshot: refresh every level-triggered gauge from
   loop state, then render the whole registry.  Event-driven counters
   and histograms (jobs, bytes, latency, lag) are maintained where the
   events happen and need no refresh here. *)
let scrape t =
  let g ?labels name v = Metrics.set (Metrics.gauge t.metrics ?labels name) v in
  g "ptaintd_queue_depth" (float_of_int t.admitted);
  g "ptaintd_clients_connected" (float_of_int (Hashtbl.length t.conns));
  g "ptaintd_workers" (float_of_int (worker_count t));
  Hashtbl.iter
    (fun cid conn ->
      g ~labels:[ ("cid", string_of_int cid) ] "ptaintd_client_inflight"
        (float_of_int conn.inflight))
    t.conns;
  List.iter
    (fun (k, v) ->
      match k with
      | "daemon/cache-hit" -> g "ptaintd_cache_hits" (float_of_int v)
      | "daemon/cache-miss" -> g "ptaintd_cache_misses" (float_of_int v)
      | "daemon/cache-evictions" -> g "ptaintd_cache_evictions" (float_of_int v)
      | "daemon/cache-entries" -> g "ptaintd_cache_entries" (float_of_int v)
      | "daemon/cache-capacity" -> g "ptaintd_cache_capacity" (float_of_int v)
      | _ -> ())
    (cache_counters t);
  Metrics.prometheus t.metrics

(* Deadline-aware admission: estimate this job's completion time from
   the observed duration histogram and current queue depth, and shed
   jobs the queue provably cannot serve in time — a typed [Rejected]
   now beats a useless result after the client stopped waiting.  With
   no duration evidence yet the job is admitted. *)
let deadline_shed t (spec : Proto.job_spec) =
  match spec.Proto.spec_deadline with
  | None -> None
  | Some budget ->
    let mean_us =
      List.fold_left
        (fun acc (r : Metrics.row) ->
          if r.Metrics.name = "ptaintd_job_duration_us" && r.Metrics.count > 0
          then Some r.Metrics.mean
          else acc)
        None (Metrics.rows t.metrics)
    in
    (match mean_us with
     | None -> None
     | Some mean_us ->
       let workers = max 1 (worker_count t) in
       let waves = (t.admitted / workers) + 1 in
       let est = mean_us /. 1e6 *. float_of_int waves in
       if est > budget then
         Some
           (Printf.sprintf
              "deadline %.3fs unmeetable: %d jobs ahead on %d workers, \
               estimated %.3fs"
              budget t.admitted workers est)
       else None)

let admit t conn (spec : Proto.job_spec) ~tag (job : Job.t) =
  let id = t.next_job in
  t.next_job <- t.next_job + 1;
  t.jobs_submitted <- t.jobs_submitted + 1;
  t.admitted <- t.admitted + 1;
  conn.inflight <- conn.inflight + 1;
  mcount t "ptaintd_jobs_submitted_total";
  (match spec.Proto.spec_idem with
   | Some key ->
     Hashtbl.replace t.idem key (Idem_pending { id; cid = conn.cid });
     Hashtbl.replace t.idem_of_job id key
   | None -> ());
  (match t.cfg.log with
   | Some l when Log.enabled l ~src:log_src Log.Debug ->
     Log.debug l ~src:log_src "job admitted"
       (Log.int "cid" conn.cid :: Log.int "id" id :: Log.str "tag" tag
        :: trace_fields job.Job.trace)
   | _ -> ());
  send conn (Proto.Accepted { id; tag });
  match backend_exn t with
  | In_process (pool, cache) ->
    Ptaint_pool.Pool.post pool (run_job_task t cache ~cid:conn.cid ~id job)
  | Isolated sup ->
    Supervisor.submit sup ~id ~cid:conn.cid
      ~label:(Campaign.label_of_policy job.Job.config.Ptaint_sim.Sim.policy)
      ~trace:job.Job.trace spec

let handle_request t conn = function
  | Proto.Hello _ ->
    send conn
      (Proto.Hello_ok { server_version = Proto.version; banner = t.cfg.banner })
  | Proto.Ping payload -> send conn (Proto.Pong payload)
  | Proto.Stats -> send conn (Proto.Stats_ok (daemon_counters t))
  | Proto.Stats_full -> send conn (Proto.Stats_full_ok (scrape t))
  | Proto.Quit -> conn.close_after_flush <- true
  | Proto.Submit spec ->
    let tag = spec.Proto.spec_tag in
    (* Idempotency wins over every other admission rule: a dedup hit
       creates no new work, so it is answered even while draining or
       full — exactly when a retrying client needs it most. *)
    let idem_hit =
      match spec.Proto.spec_idem with
      | None -> None
      | Some key -> Hashtbl.find_opt t.idem key
    in
    (match idem_hit with
     | Some (Idem_done { id; event }) ->
       mcount t "ptaintd_idem_replays_total";
       ldebug t "idempotent replay"
         [ Log.int "cid" conn.cid; Log.int "id" id; Log.str "tag" tag ];
       send conn (Proto.Accepted { id; tag });
       send conn (Proto.Job_event event)
     | Some (Idem_pending p) ->
       mcount t "ptaintd_idem_replays_total";
       if p.cid <> conn.cid then begin
         (* reroute the eventual result to the newest submitter; the
            admission quota moves with it *)
         (match Hashtbl.find_opt t.conns p.cid with
          | Some old -> old.inflight <- old.inflight - 1
          | None -> ());
         conn.inflight <- conn.inflight + 1;
         p.cid <- conn.cid;
         Hashtbl.replace t.routes p.id conn.cid
       end;
       ldebug t "idempotent reattach"
         [ Log.int "cid" conn.cid; Log.int "id" p.id; Log.str "tag" tag ];
       send conn (Proto.Accepted { id = p.id; tag })
     | None ->
       if Atomic.get t.stopping then reject t conn ~tag "server is draining"
       else if t.admitted >= t.cfg.max_queue then
         reject t conn ~tag
           (Printf.sprintf "queue full (%d jobs in flight)" t.admitted)
       else if conn.inflight >= t.cfg.max_inflight then
         reject t conn ~tag
           (Printf.sprintf "client quota exceeded (%d jobs in flight)"
              conn.inflight)
       else
         match deadline_shed t spec with
         | Some reason ->
           mcount t ~labels:[ ("reason", "deadline") ] "ptaintd_jobs_shed_total";
           reject t conn ~tag reason
         | None ->
           (match Proto.job_of_spec spec with
            | Error m -> reject t conn ~tag m
            | Ok job -> admit t conn spec ~tag job))

let protocol_failure t conn err =
  t.protocol_errors <- t.protocol_errors + 1;
  mcount t "ptaintd_protocol_errors_total";
  lwarn t "protocol error"
    [ Log.int "cid" conn.cid; Log.str "error" (Proto.error_message err) ];
  send conn (Proto.Error_frame (Proto.error_message err));
  conn.broken <- true;
  conn.close_after_flush <- true

(* Handle every whole frame the connection has buffered. *)
let drain_inbox t conn =
  let rec go () =
    if not conn.broken then
      match Proto.next conn.inbox with
      | Ok None -> ()
      | Ok (Some req) ->
        handle_request t conn req;
        go ()
      | Error err -> protocol_failure t conn err
  in
  go ()

let handle_readable t conn =
  match Proto.fill conn.inbox (Unix.read conn.fd) with
  | 0 -> disconnect t conn  (* EOF; any jobs in flight finish into the void *)
  | n ->
    Metrics.inc ~by:n (Metrics.counter t.metrics "ptaintd_bytes_read_total");
    drain_inbox t conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> disconnect t conn

let handle_writable t conn =
  (match Proto.flush conn.out (Unix.write conn.fd) with
   | 0 -> ()
   | n -> Metrics.inc ~by:n (Metrics.counter t.metrics "ptaintd_bytes_written_total")
   | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
   | exception Unix.Unix_error _ -> disconnect t conn);
  if Hashtbl.mem t.conns conn.cid && conn.close_after_flush && Proto.pending conn.out = 0
  then disconnect t conn

let accept_new t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      let cid = t.next_cid in
      t.next_cid <- t.next_cid + 1;
      t.clients_total <- t.clients_total + 1;
      let conn =
        { fd; cid; inbox = Proto.request_reader (); out = Proto.outbox ();
          inflight = 0; close_after_flush = false; broken = false }
      in
      Hashtbl.replace t.conns cid conn;
      Hashtbl.replace t.by_fd fd conn;
      mcount t "ptaintd_clients_total";
      linfo t "client connected" [ Log.int "cid" cid ];
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

(* The scrape endpoint is one-shot: accept, write the snapshot,
   close.  The payload is a few KiB against a fresh Unix-socket
   buffer, so a bounded blocking write cannot wedge the loop. *)
let serve_metrics_scrapes t listen_fd =
  let rec go () =
    match Unix.accept listen_fd with
    | fd, _ ->
      (try
         Unix.clear_nonblock fd;
         let body = Bytes.of_string (scrape t) in
         let len = Bytes.length body in
         let off = ref 0 in
         let budget = ref 64 in
         while !off < len && !budget > 0 do
           decr budget;
           match Unix.write fd body !off (len - !off) with
           | n -> off := !off + n
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         done
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

let max_spans = 65536

(* Loop-side bookkeeping for one finished job: outcome counter,
   latency histogram, log line, Chrome span. *)
let account_finished t ji =
  Metrics.inc
    (Metrics.counter t.metrics ~labels:[ ("outcome", ji.ji_outcome) ]
       "ptaintd_jobs_total");
  (* Translation-tier telemetry, aggregated across jobs: how many
     blocks the fleet promoted, how often chains stayed linked, and
     how often taint transitions forced a variant deopt. *)
  List.iter
    (fun (event, n) ->
      if n > 0 then
        Metrics.inc ~by:n
          (Metrics.counter t.metrics ~labels:[ ("event", event) ]
             "ptaintd_superblock_events_total"))
    ji.ji_superblock;
  if ji.ji_cache_hit then t.cache_hits <- t.cache_hits + 1
  else t.cache_misses <- t.cache_misses + 1;
  mobserve t "ptaintd_job_duration_us" ((ji.ji_t1 -. ji.ji_t0) *. 1e6);
  (match t.cfg.log with
   | Some l when Log.enabled l ~src:log_src Log.Info ->
     Log.info l ~src:log_src "job finished"
       (Log.int "id" ji.ji_id :: Log.str "tag" ji.ji_tag
        :: Log.str "outcome" ji.ji_outcome :: Log.bool "cache_hit" ji.ji_cache_hit
        :: Log.float "ms" ((ji.ji_t1 -. ji.ji_t0) *. 1e3)
        :: trace_fields ji.ji_trace)
   | _ -> ());
  if t.cfg.trace_path <> None then begin
    if t.spans_count < max_spans then begin
      t.spans <- ji :: t.spans;
      t.spans_count <- t.spans_count + 1
    end
    else t.spans_dropped <- t.spans_dropped + 1
  end

let event_id = function
  | Proto.Started { id } -> id
  | Proto.Finished { id; _ } -> id
  | Proto.Job_failed { id; _ } -> id

(* Terminal event for a keyed job: remember it for replays, with FIFO
   eviction so the table is bounded.  Only finished keys enter the
   eviction queue — a pending key is always backed by a live admission. *)
let record_idem_done t ~id ev =
  match Hashtbl.find_opt t.idem_of_job id with
  | None -> ()
  | Some key ->
    Hashtbl.remove t.idem_of_job id;
    Hashtbl.replace t.idem key (Idem_done { id; event = ev });
    Queue.push key t.idem_order;
    while Hashtbl.length t.idem > max_idem_entries
          && not (Queue.is_empty t.idem_order) do
      let victim = Queue.pop t.idem_order in
      match Hashtbl.find_opt t.idem victim with
      | Some (Idem_done _) -> Hashtbl.remove t.idem victim
      | _ -> ()
    done

let drain_completions t =
  let batch =
    Mutex.lock t.cq_mu;
    let xs = Queue.fold (fun acc c -> c :: acc) [] t.cq in
    Queue.clear t.cq;
    Mutex.unlock t.cq_mu;
    List.rev xs
  in
  List.iter
    (fun c ->
      (* An idempotent resubmit may have rerouted this job to a newer
         connection after dispatch; the override table wins. *)
      let cid, id =
        match c.c_resp with
        | Proto.Job_event ev ->
          let id = event_id ev in
          ((match Hashtbl.find_opt t.routes id with
            | Some cid -> cid
            | None -> c.c_cid),
           Some id)
        | _ -> (c.c_cid, None)
      in
      if c.c_terminal then begin
        t.admitted <- t.admitted - 1;
        t.jobs_completed <- t.jobs_completed + 1;
        (match c.c_info with Some ji -> account_finished t ji | None -> ());
        match (id, c.c_resp) with
        | Some id, Proto.Job_event ev ->
          record_idem_done t ~id ev;
          Hashtbl.remove t.routes id
        | _ -> ()
      end;
      match Hashtbl.find_opt t.conns cid with
      | None -> ()  (* client gone mid-job: result dropped, accounting kept *)
      | Some conn ->
        if c.c_terminal then conn.inflight <- conn.inflight - 1;
        send conn c.c_resp)
    batch

let drain_wakeups t =
  let b = t.wake_buf in
  let rec go () =
    match Unix.read t.wake_rd b 0 (Bytes.length b) with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

(* All admitted jobs finished and every completion routed to an
   outbox.  Outboxes themselves are flushed best-effort on exit: a
   client that stops reading must not be able to wedge shutdown. *)
let drained t =
  t.admitted = 0 && Mutex.protect t.cq_mu (fun () -> Queue.is_empty t.cq)

let final_flush conn =
  let rec go budget =
    if budget > 0 && Proto.pending conn.out > 0 then
      match Proto.flush conn.out (Unix.write conn.fd) with
      | _ -> go (budget - 1)
      | exception Unix.Unix_error _ -> ()
  in
  go 64

(* The daemon side of a cross-process timeline: every completed job
   as a Chrome complete-span on pid 2 (clients use pid 1), one track
   per worker domain, timestamped in absolute epoch microseconds so a
   client trace of the same jobs merges without realignment. *)
let write_trace t =
  match t.cfg.trace_path with
  | None -> ()
  | Some path ->
    let tr = Ptaint_obs.Chrome.create () in
    List.iter
      (fun ji ->
        let args =
          [ ("outcome", ji.ji_outcome);
            ("cache_hit", if ji.ji_cache_hit then "true" else "false") ]
          @ (match ji.ji_trace with
             | None -> []
             | Some (tid, span) ->
               [ ("trace", Log.hex_id tid); ("span", string_of_int span) ])
        in
        Ptaint_obs.Chrome.complete tr ~name:ji.ji_tag ~cat:"daemon" ~pid:2
          ~tid:ji.ji_domain ~ts_us:(ji.ji_t0 *. 1e6)
          ~dur_us:((ji.ji_t1 -. ji.ji_t0) *. 1e6) ~args ())
      (List.rev t.spans);
    if t.spans_dropped > 0 then
      lwarn t "trace spans dropped"
        [ Log.int "dropped" t.spans_dropped; Log.int "kept" t.spans_count ];
    Ptaint_obs.Chrome.write_file tr path

let serve t =
  let listening = ref true in
  let finished = ref false in
  while not !finished do
    if Atomic.get t.stopping && !listening then begin
      listening := false;
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
      linfo t "draining" [ Log.int "inflight" t.admitted ]
    end;
    if Atomic.get t.stopping && drained t then finished := true
    else begin
      let reads =
        t.wake_rd
        :: (if !listening then [ t.listen_fd ] else [])
        @ (match t.metrics_fd with Some fd when !listening -> [ fd ] | _ -> [])
        @ (match backend_exn t with
           | Isolated sup -> Supervisor.fds sup
           | In_process _ -> [])
        @ Hashtbl.fold (fun _ c acc -> if c.broken then acc else c.fd :: acc) t.conns []
      in
      let writes =
        Hashtbl.fold
          (fun _ c acc ->
            if Proto.pending c.out > 0 || c.close_after_flush then c.fd :: acc
            else acc)
          t.conns []
      in
      let readable, writable, _ =
        try Unix.select reads writes [] 0.5
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      (* Lag = time the loop spends away from [select] this
         iteration; the histogram is what a stall (oversized batch,
         slow client, scrape burst) shows up in. *)
      let work_t0 = Unix.gettimeofday () in
      if List.mem t.wake_rd readable then drain_wakeups t;
      (match backend_exn t with
       | Isolated sup ->
         List.iter (Supervisor.handle_readable sup) readable;
         Supervisor.tick sup ~now:work_t0
       | In_process _ -> ());
      drain_completions t;
      if !listening && List.mem t.listen_fd readable then accept_new t;
      (match t.metrics_fd with
       | Some fd when !listening && List.mem fd readable -> serve_metrics_scrapes t fd
       | _ -> ());
      (* Client fds are exactly the keys of [by_fd]: the self-pipe,
         the listeners and the worker pipes never are. *)
      let on_conn f fd = match Hashtbl.find_opt t.by_fd fd with Some c -> f t c | None -> () in
      List.iter (on_conn handle_readable) readable;
      List.iter (on_conn handle_writable) writable;
      (* close_after_flush conns whose outbox emptied without a write
         event this round (e.g. Quit on an already-flushed conn) *)
      let flushed =
        Hashtbl.fold
          (fun _ c acc ->
            if c.close_after_flush && Proto.pending c.out = 0 then c :: acc
            else acc)
          t.conns []
      in
      List.iter (fun c -> disconnect t c) flushed;
      mobserve t "ptaintd_loop_lag_us" ((Unix.gettimeofday () -. work_t0) *. 1e6)
    end
  done;
  Hashtbl.iter (fun _ c -> final_flush c) t.conns;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  Hashtbl.reset t.conns;
  (match backend_exn t with
   | In_process (pool, _) -> Ptaint_pool.Pool.stop pool
   | Isolated sup -> Supervisor.stop sup);
  (match t.metrics_fd with
   | Some fd ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (match t.cfg.metrics_sock with
      | Some p -> (try Unix.unlink p with Unix.Unix_error _ -> ())
      | None -> ())
   | None -> ());
  write_trace t;
  (try Unix.close t.wake_rd with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_wr with Unix.Unix_error _ -> ());
  linfo t "drained, goodbye" [ Log.int "jobs" t.jobs_completed ];
  (match t.cfg.log with Some l -> Log.flush l | None -> ())

let stats t = daemon_counters t
let prometheus t = scrape t

let worker_pids t =
  match backend_exn t with
  | In_process _ -> []
  | Isolated sup -> Supervisor.pids sup
