(* ptaintd supervision tree: fork N worker processes, ship jobs to
   them over Proto-framed pipes, and keep the service alive when a
   worker wedges, crashes, or is killed out from under it.

   Ownership: the supervisor lives entirely on the daemon's event
   loop — every entry point here runs on the serving thread, so there
   is no locking, and nothing here blocks: the down pipes are
   non-blocking, and whatever a pipe refuses waits in the worker's
   outbox until [select] reports the pipe writable.

   A lone worker holds a window of up to [window] dispatched jobs.
   It runs them in order, so the head of the window is the running
   job and each terminal event on its (fresh per process) up pipe
   belongs to the head; the jobs behind it are already down the pipe,
   so the worker starts the next one without waiting on a round trip.
   Only the head counts as started: it alone has a [Started], a
   delivery spent and a deadline running.  A job in a window cannot
   be taken back, so in a pool of several workers a job queued behind
   a long head would wait for it while a peer idles; there each
   window holds just its running job, and a job goes to the first
   idle worker.

   Workers are detected sick three ways:

   - EOF (or garbage) on the worker's up pipe: the worker crashed or
     was SIGKILLed.  Immediate.
   - missed heartbeats while idle (empty window): an idle worker
     Pongs every 0.25 s; silence past [beat_tolerance] means it is
     stopped or wedged (SIGSTOP, runaway GC) even though the pipe is
     open.
   - a blown deadline of the window's head: the in-worker cooperative
     watchdog fires at the job's timeout and produces a typed Timeout
     — the supervisor only steps in [grace] seconds later, when the
     worker is provably stuck in non-yielding code (or stopped) and
     cooperation has failed.

   A sick worker is SIGKILLed, reaped, and respawned with jittered
   exponential backoff.  Its running job is redelivered to a
   surviving worker — bounded by [max_deliveries] — and the jobs
   queued behind it, which never ran, go back to the front of the
   pending queue without spending a delivery, so an innocent
   job disturbed by a worker death completes normally and the
   campaign's final counters stay byte-identical to an undisturbed
   run.  A job that exhausts its deliveries is synthesized into the
   typed failure the cooperative path would have produced (timeout
   when its deadline blew, crashed otherwise), with the exact
   {!Ptaint_campaign.Campaign.failure_counters} shape. *)

module Campaign = Ptaint_campaign.Campaign
module Log = Ptaint_obs.Log
module Metrics = Ptaint_obs.Metrics

type dispatch = {
  d_id : int;  (* server-side job id; rewritten onto worker events *)
  d_cid : int;
  d_spec : Proto.job_spec;
  d_tag : string;
  d_label : string;  (* canonical policy label, for synthesized failures *)
  d_trace : (int * int) option;
  d_timeout : float option;  (* job's own, else the server default *)
  mutable d_deliveries : int;
  mutable d_dispatched : float;  (* when it last entered a window: the duration's t0 *)
  mutable d_started : float;  (* when the current delivery became the head *)
  mutable d_expired : bool;  (* the preemptive deadline fired *)
}

type worker = {
  w_index : int;
  mutable w_pid : int;
  mutable w_down : Unix.file_descr;  (* supervisor writes requests *)
  mutable w_up : Unix.file_descr;  (* supervisor reads responses *)
  mutable w_inbox : Proto.response Proto.reader;
  mutable w_out : Proto.outbox;  (* requests down; fresh per process *)
  w_window : dispatch Queue.t;  (* in flight, in dispatch order; the head runs *)
  mutable w_last_beat : float;
  mutable w_alive : bool;
  mutable w_restarts : int;  (* consecutive, drives the backoff *)
  mutable w_respawn_at : float;
}

type config = {
  workers : int;
  job_timeout : float option;
  cache_capacity : int;
  log : Log.t option;
  metrics : Metrics.t;
  close_in_child : unit -> Unix.file_descr list;
      (* parent-side fds a freshly forked worker must not inherit;
         evaluated at each fork, since connections come and go *)
  emit : cid:int -> Proto.event -> Worker.done_job option -> unit;
}

(* Idle silence past this many seconds is a heartbeat miss: eight
   missed beats. *)
let beat_tolerance = 2.0

(* Dispatch deadline for a job that carries no timeout. *)
let hang_timeout = 60.0

(* Slack past the cooperative watchdog before the supervisor steps in. *)
let grace = 2.0

(* Total dispatch attempts per job. *)
let max_deliveries = 2

(* Jobs in flight on a lone worker, the running head included. *)
let window = 8

(* Respawn backoff: doubles per consecutive death from [backoff_base]
   up to [backoff_cap] seconds, then jittered. *)
let backoff_base = 0.05
let backoff_cap = 2.0

type t = {
  cfg : config;
  workers : worker array;
  pending : dispatch Queue.t;
  rng : Ptaint_fi.Fi.Rng.t;
}

let log_src = "ptaintd-sup"

let lwarn t msg fields =
  match t.cfg.log with Some l -> Log.warn l ~src:log_src msg fields | None -> ()

let linfo t msg fields =
  match t.cfg.log with Some l -> Log.info l ~src:log_src msg fields | None -> ()

let mcount t ?labels name = Metrics.inc (Metrics.counter t.cfg.metrics ?labels name)

(* One write of whatever the worker's outbox holds, as much as the
   non-blocking pipe takes.  A full pipe is not an error: the rest
   waits for [select] to report the pipe writable. *)
let flush w =
  match Proto.flush w.w_out (Unix.write w.w_down) with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let send w req =
  Proto.add_request w.w_out req;
  flush w

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* --- spawn / respawn -------------------------------------------------- *)

let spawn t w =
  let down_rd, down_wr = Unix.pipe () in
  let up_rd, up_wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (* Child: drop every parent-side fd, detach from the parent's
       signal regime, run the worker loop, and leave through _exit so
       no parent buffers flush twice and no at_exit runs here. *)
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    Sys.set_signal Sys.sigint Sys.Signal_default;
    close_quiet down_wr;
    close_quiet up_rd;
    List.iter close_quiet (t.cfg.close_in_child ());
    Array.iter
      (fun other ->
        if other.w_index <> w.w_index && other.w_alive then begin
          close_quiet other.w_down;
          close_quiet other.w_up
        end)
      t.workers;
    let config =
      { Worker.cache_capacity = t.cfg.cache_capacity; job_timeout = t.cfg.job_timeout }
    in
    (match Worker.main ~config ~rd:down_rd ~wr:up_wr with
     | () -> Unix._exit 0
     | exception _ -> Unix._exit 1)
  | pid ->
    close_quiet down_rd;
    close_quiet up_wr;
    Unix.set_nonblock up_rd;
    Unix.set_nonblock down_wr;
    w.w_pid <- pid;
    w.w_down <- down_wr;
    w.w_up <- up_rd;
    w.w_inbox <- Proto.response_reader ();
    w.w_out <- Proto.outbox ();
    w.w_alive <- true;
    w.w_last_beat <- Unix.gettimeofday ();
    linfo t "worker spawned" [ Log.int "worker" w.w_index; Log.int "pid" pid ]

let create (cfg : config) =
  let workers =
    Array.init (max 1 cfg.workers) (fun i ->
        { w_index = i; w_pid = -1; w_down = Unix.stdin; w_up = Unix.stdin;
          w_inbox = Proto.response_reader (); w_out = Proto.outbox ();
          w_window = Queue.create (); w_last_beat = 0.;
          w_alive = false; w_restarts = 0; w_respawn_at = 0. })
  in
  let seed =
    int_of_float (Unix.gettimeofday () *. 1e6)
    lxor (Unix.getpid () * 0x1e3779b)
  in
  let t =
    { cfg; workers; pending = Queue.create ();
      rng = Ptaint_fi.Fi.Rng.create seed }
  in
  Array.iter (fun w -> spawn t w) t.workers;
  t

let size t = Array.length t.workers

let fds t =
  Array.fold_right
    (fun w (reads, writes) ->
      if not w.w_alive then (reads, writes)
      else
        ( w.w_up :: reads,
          if Proto.pending w.w_out > 0 then w.w_down :: writes else writes ))
    t.workers ([], [])

(* --- dispatch --------------------------------------------------------- *)

exception Worker_gone of worker

(* [d] became the head of its worker's window: this delivery runs. *)
let start t d =
  d.d_deliveries <- d.d_deliveries + 1;
  d.d_started <- Unix.gettimeofday ();
  d.d_expired <- false;
  t.cfg.emit ~cid:d.d_cid (Proto.Started { id = d.d_id }) None

let dispatch t w d =
  d.d_dispatched <- Unix.gettimeofday ();
  Queue.push d w.w_window;
  if Queue.length w.w_window = 1 then start t d;
  match send w (Proto.Submit d.d_spec) with
  | () -> ()
  | exception Unix.Unix_error _ ->
    (* the worker died between our last read and this write; the
       death path below requeues its window and respawns *)
    raise (Worker_gone w)

(* The first live worker with room in its window.  Only a lone
   worker queues jobs behind its head: with no peer, a queued job had
   nowhere else to run. *)
let with_room t =
  let depth = if size t = 1 then window else 1 in
  Array.find_opt (fun w -> w.w_alive && Queue.length w.w_window < depth) t.workers

(* Synthesize the typed failure the cooperative path would have
   produced for a job the supervisor had to give up on. *)
let synthesize t d =
  let kind, message =
    if d.d_expired then
      let seconds =
        match d.d_timeout with Some s -> s | None -> hang_timeout
      in
      ( Campaign.Timeout { seconds },
        Printf.sprintf
          "ptaintd: worker exceeded the %gs dispatch deadline (wedged or stopped)"
          seconds )
    else
      ( Campaign.Crashed,
        Printf.sprintf
          "ptaintd: worker died running this job (%d deliveries exhausted)"
          d.d_deliveries )
  in
  let ev =
    Proto.Job_failed
      { id = d.d_id; tag = d.d_tag; kind = Campaign.kind_name kind;
        message; policy_label = d.d_label;
        counters = Campaign.failure_counters kind; trace = d.d_trace }
  in
  mcount t ~labels:[ ("kind", Campaign.kind_name kind) ]
    "ptaintd_jobs_synthesized_total";
  lwarn t "job synthesized as failure"
    [ Log.int "id" d.d_id; Log.str "tag" d.d_tag;
      Log.str "kind" (Campaign.kind_name kind);
      Log.int "deliveries" d.d_deliveries ];
  t.cfg.emit ~cid:d.d_cid ev (Some (Worker.done_job ~t0:d.d_dispatched ~worker:(-1) ev))

(* Fill the workers' windows from the pending queue.  A worker dying
   at dispatch time requeues its window and loops, so one bad write
   cannot lose work. *)
let rec pump t =
  if not (Queue.is_empty t.pending) then
    match with_room t with
    | None -> ()
    | Some w ->
      let d = Queue.pop t.pending in
      (match dispatch t w d with
       | () -> ()
       | exception Worker_gone w -> worker_died t w ~reason:"crash");
      pump t

(* A worker is gone (crashed, stopped past tolerance, or deadline-
   blown): kill it for certain, reap it, requeue its window, and
   schedule the respawn with jittered exponential backoff.  Only the
   head ran, so only the head spends its delivery (or, out of them,
   is synthesized); the jobs behind it go back ahead of the pending
   queue in dispatch order, their delivery budget untouched. *)
and worker_died t w ~reason =
  if w.w_alive then begin
    w.w_alive <- false;
    (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
    (let rec reap () =
       match Unix.waitpid [] w.w_pid with
       | _ -> ()
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
       | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
     in
     reap ());
    close_quiet w.w_down;
    close_quiet w.w_up;
    w.w_restarts <- w.w_restarts + 1;
    let backoff =
      let exp =
        backoff_base *. (2. ** float_of_int (min 10 (w.w_restarts - 1)))
      in
      let capped = Float.min exp backoff_cap in
      (* full jitter: uniform in [capped/2, capped], so a fleet of
         dying workers never respawns in lockstep *)
      let u =
        float_of_int (Ptaint_fi.Fi.Rng.next t.rng land 0xffff) /. 65535.
      in
      (capped /. 2.) +. (capped /. 2.) *. u
    in
    w.w_respawn_at <- Unix.gettimeofday () +. backoff;
    mcount t ~labels:[ ("reason", reason) ] "ptaintd_worker_restarts_total";
    lwarn t "worker died"
      [ Log.int "worker" w.w_index; Log.int "pid" w.w_pid;
        Log.str "reason" reason; Log.int "restarts" w.w_restarts;
        Log.float "backoff_s" backoff ];
    let requeue = Queue.create () in
    (match Queue.take_opt w.w_window with
     | None -> ()
     | Some d ->
       if d.d_deliveries >= max_deliveries then synthesize t d
       else begin
         mcount t "ptaintd_redeliveries_total";
         lwarn t "job redelivered"
           [ Log.int "id" d.d_id; Log.str "tag" d.d_tag;
             Log.int "delivery" (d.d_deliveries + 1) ];
         Queue.push d requeue
       end);
    Metrics.inc ~by:(Queue.length w.w_window)
      (Metrics.counter t.cfg.metrics "ptaintd_requeues_total");
    Queue.transfer w.w_window requeue;
    Queue.transfer t.pending requeue;
    Queue.transfer requeue t.pending;
    pump t
  end

let submit t ~id ~cid ~label ~trace spec =
  let d =
    { d_id = id; d_cid = cid; d_spec = spec; d_tag = spec.Proto.spec_tag;
      d_label = label; d_trace = trace;
      d_timeout =
        (match spec.Proto.spec_timeout with
         | Some _ as s -> s
         | None -> t.cfg.job_timeout);
      d_deliveries = 0; d_dispatched = 0.; d_started = 0.; d_expired = false }
  in
  Queue.push d t.pending;
  pump t

(* --- worker events ---------------------------------------------------- *)

(* A worker sends one terminal event per job, carrying id 0, for the
   head of its window; the supervisor's own dispatch record names the
   job.  The next job in the window is then the head: it starts. *)
let handle_event t w resp =
  w.w_last_beat <- Unix.gettimeofday ();
  let finish d ev =
    ignore (Queue.pop w.w_window);
    w.w_restarts <- 0;  (* a completed job proves the worker healthy *)
    t.cfg.emit ~cid:d.d_cid ev
      (Some (Worker.done_job ~t0:d.d_dispatched ~worker:w.w_index ev));
    Option.iter (start t) (Queue.peek_opt w.w_window);
    pump t
  in
  match (Queue.peek_opt w.w_window, resp) with
  | Some d, Proto.Job_event (Proto.Finished f) ->
    finish d (Proto.Finished { f with id = d.d_id })
  | Some d, Proto.Job_event (Proto.Job_failed f) ->
    finish d (Proto.Job_failed { f with id = d.d_id })
  | _ -> ()  (* Hello_ok or Pong *)

(* One ready fd from the server's [select]: a readable up pipe is
   drained, a writable down pipe takes more of the outbox. *)
let handle_ready t fd =
  let rec find i =
    if i = Array.length t.workers then None
    else
      let w = t.workers.(i) in
      if w.w_alive && (w.w_up = fd || w.w_down = fd) then Some w else find (i + 1)
  in
  match find 0 with
  | None -> ()
  | Some w when w.w_down = fd -> (
    match flush w with
    | () -> ()
    | exception Unix.Unix_error _ -> worker_died t w ~reason:"crash")
  | Some w -> (
    match Proto.fill w.w_inbox (Unix.read w.w_up) with
    | 0 -> worker_died t w ~reason:"crash"
    | _ ->
      let rec drain () =
        if w.w_alive then
          match Proto.next w.w_inbox with
          | Ok None -> ()
          | Ok (Some resp) ->
            handle_event t w resp;
            drain ()
          | Error _ -> worker_died t w ~reason:"crash"
      in
      drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ -> worker_died t w ~reason:"crash")

(* --- periodic maintenance -------------------------------------------- *)

let deadline_of d =
  d.d_started +. (match d.d_timeout with Some s -> s | None -> hang_timeout) +. grace

let tick t ~now =
  Array.iter
    (fun w ->
      if (not w.w_alive) && now >= w.w_respawn_at then spawn t w
      else if w.w_alive then
        match Queue.peek_opt w.w_window with
        | Some d when now > deadline_of d ->
          d.d_expired <- true;
          worker_died t w ~reason:"deadline"
        | None when now -. w.w_last_beat > beat_tolerance ->
          mcount t "ptaintd_heartbeat_misses_total";
          worker_died t w ~reason:"heartbeat"
        | _ -> ())
    t.workers;
  pump t

(* --- shutdown --------------------------------------------------------- *)

let stop t =
  Array.iter
    (fun w ->
      if w.w_alive then begin
        (try
           Unix.clear_nonblock w.w_down;
           Proto.add_request w.w_out Proto.Quit;
           Proto.flush_all w.w_out (Proto.write_fd w.w_down)
         with Unix.Unix_error _ -> ());
        let deadline = Unix.gettimeofday () +. 2.0 in
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
          | 0, _ ->
            if Unix.gettimeofday () < deadline then begin
              ignore (Unix.select [] [] [] 0.02);
              wait ()
            end
            else begin
              (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
              let rec reap () =
                match Unix.waitpid [] w.w_pid with
                | _ -> ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
                | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
              in
              reap ()
            end
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
        in
        wait ();
        close_quiet w.w_down;
        close_quiet w.w_up;
        w.w_alive <- false
      end)
    t.workers
