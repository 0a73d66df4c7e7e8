(* ptaintd supervision tree: fork N worker processes, ship jobs to
   them over Proto-framed pipes, and keep the service alive when a
   worker wedges, crashes, or is killed out from under it.

   Ownership: the supervisor lives entirely on the daemon's event
   loop — every entry point here runs on the serving thread, so there
   is no locking.  Workers are detected sick three ways:

   - EOF (or garbage) on the worker's up pipe: the worker crashed or
     was SIGKILLed.  Immediate.
   - missed heartbeats while idle: an idle worker Pongs every
     [beat_interval]; silence past [beat_tolerance] means it is
     stopped or wedged (SIGSTOP, runaway GC) even though the pipe is
     open.
   - a blown dispatch deadline while busy: the in-worker cooperative
     watchdog fires at the job's timeout and produces a typed Timeout
     — the supervisor only steps in [grace] seconds later, when the
     worker is provably stuck in non-yielding code (or stopped) and
     cooperation has failed.

   A sick worker is SIGKILLed, reaped, and respawned with jittered
   exponential backoff.  Its in-flight job is redelivered to a
   surviving worker — bounded by [max_deliveries] — so an innocent
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
  mutable d_started : float;  (* dispatch time of the current delivery *)
  mutable d_expired : bool;  (* the preemptive deadline fired *)
}

type worker = {
  w_index : int;
  mutable w_pid : int;
  mutable w_down : Unix.file_descr;  (* supervisor writes requests *)
  mutable w_up : Unix.file_descr;  (* supervisor reads responses *)
  mutable w_inbox : Proto.response Proto.reader;
  mutable w_out : Proto.outbox;  (* requests down; fresh per process *)
  mutable w_busy : dispatch option;
  mutable w_last_beat : float;
  mutable w_alive : bool;
  mutable w_restarts : int;  (* consecutive, drives the backoff *)
  mutable w_respawn_at : float;
}

(* What the server needs to account a terminal event without the
   worker-side result: mirrors its loop-side job bookkeeping. *)
type done_info = {
  i_id : int;
  i_tag : string;
  i_outcome : string;
  i_cache_hit : bool;
  i_trace : (int * int) option;
  i_t0 : float;
  i_t1 : float;
  i_worker : int;
}

type config = {
  workers : int;
  job_timeout : float option;
  cache_capacity : int;
  beat_interval : float;
  beat_tolerance : float;
  hang_timeout : float;  (* deadline for jobs that carry no timeout *)
  grace : float;  (* slack past the cooperative watchdog *)
  max_deliveries : int;
  backoff_base : float;
  backoff_cap : float;
  log : Log.t option;
  metrics : Metrics.t option;
  close_in_child : unit -> Unix.file_descr list;
      (* parent-side fds a freshly forked worker must not inherit;
         evaluated at each fork, since connections come and go *)
  emit :
    cid:int -> Proto.response -> terminal:bool -> info:done_info option -> unit;
}

let default_config ~emit =
  { workers = 2; job_timeout = None; cache_capacity = 16;
    beat_interval = 0.25; beat_tolerance = 2.0; hang_timeout = 60.0;
    grace = 2.0; max_deliveries = 2; backoff_base = 0.05; backoff_cap = 2.0;
    log = None; metrics = None; close_in_child = (fun () -> []); emit }

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

let mcount t ?labels name =
  match t.cfg.metrics with
  | Some m -> Metrics.inc (Metrics.counter m ?labels name)
  | None -> ()

(* Blocking: the whole frame goes down the pipe before this returns. *)
let send w req =
  Proto.add_request w.w_out req;
  Proto.flush_all w.w_out (Proto.write_fd w.w_down)

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
      { Worker.cache_capacity = t.cfg.cache_capacity;
        job_timeout = t.cfg.job_timeout;
        beat_interval = t.cfg.beat_interval }
    in
    (match Worker.main ~config ~rd:down_rd ~wr:up_wr with
     | () -> Unix._exit 0
     | exception _ -> Unix._exit 1)
  | pid ->
    close_quiet down_rd;
    close_quiet up_wr;
    Unix.set_nonblock up_rd;
    w.w_pid <- pid;
    w.w_down <- down_wr;
    w.w_up <- up_rd;
    w.w_inbox <- Proto.response_reader ();
    w.w_out <- Proto.outbox ();
    w.w_busy <- None;
    w.w_alive <- true;
    w.w_last_beat <- Unix.gettimeofday ();
    linfo t "worker spawned" [ Log.int "worker" w.w_index; Log.int "pid" pid ]

let create (cfg : config) =
  let workers =
    Array.init (max 1 cfg.workers) (fun i ->
        { w_index = i; w_pid = -1; w_down = Unix.stdin; w_up = Unix.stdin;
          w_inbox = Proto.response_reader (); w_out = Proto.outbox ();
          w_busy = None; w_last_beat = 0.;
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
let pids t =
  Array.to_list t.workers
  |> List.filter_map (fun w -> if w.w_alive then Some w.w_pid else None)

let fds t =
  Array.to_list t.workers
  |> List.filter_map (fun w -> if w.w_alive then Some w.w_up else None)

let in_flight t =
  Queue.length t.pending
  + Array.fold_left
      (fun acc w -> if w.w_busy <> None then acc + 1 else acc)
      0 t.workers

(* --- dispatch --------------------------------------------------------- *)

exception Worker_gone of worker

let dispatch t w d =
  d.d_deliveries <- d.d_deliveries + 1;
  d.d_started <- Unix.gettimeofday ();
  d.d_expired <- false;
  w.w_busy <- Some d;
  match send w (Proto.Submit d.d_spec) with
  | () -> ()
  | exception Unix.Unix_error _ ->
    (* the worker died between our last read and this write; the
       death path below requeues [d] and respawns *)
    raise (Worker_gone w)

let idle_worker t =
  let found = ref None in
  Array.iter
    (fun w -> if !found = None && w.w_alive && w.w_busy = None then found := Some w)
    t.workers;
  !found

(* Synthesize the typed failure the cooperative path would have
   produced for a job the supervisor had to give up on. *)
let synthesize t d =
  let kind, message =
    if d.d_expired then
      let seconds =
        match d.d_timeout with Some s -> s | None -> t.cfg.hang_timeout
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
  t.cfg.emit ~cid:d.d_cid (Proto.Job_event ev) ~terminal:true
    ~info:
      (Some
         { i_id = d.d_id; i_tag = d.d_tag;
           i_outcome = Campaign.kind_name kind; i_cache_hit = false;
           i_trace = d.d_trace; i_t0 = d.d_started;
           i_t1 = Unix.gettimeofday (); i_worker = (-1) })

(* Feed idle workers from the pending queue.  A worker dying at
   dispatch time requeues the job and loops, so one bad write cannot
   lose work. *)
let rec pump t =
  if not (Queue.is_empty t.pending) then
    match idle_worker t with
    | None -> ()
    | Some w -> (
      let d = Queue.pop t.pending in
      match dispatch t w d with
      | () -> pump t
      | exception Worker_gone w ->
        worker_died t w ~reason:"crash";
        pump t)

(* A worker is gone (crashed, stopped past tolerance, or deadline-
   blown): kill it for certain, reap it, requeue or synthesize its
   job, and schedule the respawn with jittered exponential backoff. *)
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
        t.cfg.backoff_base *. (2. ** float_of_int (min 10 (w.w_restarts - 1)))
      in
      let capped = Float.min exp t.cfg.backoff_cap in
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
    (match w.w_busy with
     | None -> ()
     | Some d ->
       w.w_busy <- None;
       if d.d_deliveries >= t.cfg.max_deliveries then synthesize t d
       else begin
         mcount t "ptaintd_redeliveries_total";
         lwarn t "job redelivered"
           [ Log.int "id" d.d_id; Log.str "tag" d.d_tag;
             Log.int "delivery" (d.d_deliveries + 1) ];
         Queue.push d t.pending
       end);
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
      d_deliveries = 0; d_started = Unix.gettimeofday (); d_expired = false }
  in
  Queue.push d t.pending;
  pump t

(* --- worker events ---------------------------------------------------- *)

let rewrite_id d = function
  | Proto.Started _ -> Proto.Started { id = d.d_id }
  | Proto.Finished f -> Proto.Finished { f with id = d.d_id }
  | Proto.Job_failed f -> Proto.Job_failed { f with id = d.d_id }

let handle_event t w resp =
  w.w_last_beat <- Unix.gettimeofday ();
  match resp with
  | Proto.Hello_ok _ | Proto.Pong _ -> ()
  | Proto.Job_event ev -> (
    match w.w_busy with
    | None -> ()  (* stale event from a redelivered job: drop *)
    | Some d -> (
      match ev with
      | Proto.Started _ ->
        t.cfg.emit ~cid:d.d_cid (Proto.Job_event (rewrite_id d ev))
          ~terminal:false ~info:None
      | Proto.Finished _ | Proto.Job_failed _ ->
        w.w_busy <- None;
        w.w_restarts <- 0;  (* a completed job proves the worker healthy *)
        let ev = rewrite_id d ev in
        let cache_hit =
          match ev with Proto.Finished f -> f.cache_hit | _ -> false
        in
        t.cfg.emit ~cid:d.d_cid (Proto.Job_event ev) ~terminal:true
          ~info:
            (Some
               { i_id = d.d_id; i_tag = d.d_tag;
                 i_outcome = Worker.outcome_of_event ev; i_cache_hit = cache_hit;
                 i_trace = d.d_trace; i_t0 = d.d_started;
                 i_t1 = Unix.gettimeofday (); i_worker = w.w_index });
        pump t))
  | _ -> ()

let handle_readable t fd =
  let rec find i =
    if i = Array.length t.workers then None
    else
      let w = t.workers.(i) in
      if w.w_alive && w.w_up = fd then Some w else find (i + 1)
  in
  match find 0 with
  | None -> ()
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

let deadline_of t d =
  d.d_started
  +. (match d.d_timeout with Some s -> s | None -> t.cfg.hang_timeout)
  +. t.cfg.grace

let tick t ~now =
  Array.iter
    (fun w ->
      if (not w.w_alive) && now >= w.w_respawn_at then spawn t w
      else if w.w_alive then
        match w.w_busy with
        | Some d when now > deadline_of t d ->
          d.d_expired <- true;
          worker_died t w ~reason:"deadline"
        | None when now -. w.w_last_beat > t.cfg.beat_tolerance ->
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
        (try send w Proto.Quit
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
