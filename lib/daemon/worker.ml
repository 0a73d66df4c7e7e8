(* ptaintd worker process: the child half of the supervision tree.

   In --isolate mode the daemon forks N of these; each owns its own
   image cache and runs one job at a time, so a wedged or crashing
   analysis costs one worker process, never the daemon.  IPC reuses
   the Proto codec over a pipe pair: the supervisor writes request
   frames down (Submit / Ping / Quit), the worker writes response
   frames up (Hello_ok on boot, one terminal Job_event per job, Pong
   heartbeats while idle).  The worker is single-threaded by design:
   while a job runs it cannot heartbeat, so the supervisor covers busy
   workers with the dispatch deadline instead of the heartbeat.

   Job identity is a supervisor concern — dispatch depth is one, so
   the supervisor always knows which job a worker runs: it announces
   [Started] itself once the Submit is down the pipe, and rewrites the
   id of the terminal event on the way through.  Events here carry
   id 0.

   This module also owns what the in-process backend shares with it:
   the job runner and the result→event serialization ({!run_job}), so
   both execution paths emit byte-identical frames for identical jobs,
   and the daemon's record of a finished job ({!done_job}), so both
   are accounted alike. *)

module Campaign = Ptaint_campaign.Campaign
module Job = Ptaint_campaign.Job

(* --- result -> wire event (shared with Server) ----------------------- *)

let max_event_stdout = 1 lsl 20

let truncate_stdout s =
  if String.length s <= max_event_stdout then s
  else String.sub s 0 max_event_stdout ^ "\n[stdout truncated by ptaintd]\n"

let event_of_result ~id ~tag ~cache_hit (r : Campaign.job_result) =
  let counters = Campaign.job_counters r in
  match r.Campaign.status with
  | Campaign.Finished res ->
    Proto.Finished
      { id; tag;
        outcome = Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome res.Ptaint_sim.Sim.outcome;
        exit_code = Ptaint_sim.Sim.exit_code res.Ptaint_sim.Sim.outcome;
        instructions = res.Ptaint_sim.Sim.instructions;
        syscalls = res.Ptaint_sim.Sim.syscalls;
        policy_label = r.Campaign.policy_label;
        cache_hit;
        counters;
        stdout = truncate_stdout res.Ptaint_sim.Sim.stdout;
        trace = r.Campaign.trace;
        alert_pc =
          (match res.Ptaint_sim.Sim.outcome with
           | Ptaint_sim.Sim.Alert a -> Some a.Ptaint_cpu.Machine.alert_pc
           | _ -> None) }
  | Campaign.Failed f ->
    Proto.Job_failed
      { id; tag;
        kind = Campaign.kind_name f.Campaign.kind;
        message = f.Campaign.exn;
        policy_label = r.Campaign.policy_label;
        counters;
        trace = r.Campaign.trace }

(* Serialization itself must not be able to kill a worker: a result
   that will not render becomes a typed crashed failure with the
   canonical counter shape. *)
let event_of_job_result ~id ~(job : Job.t) ~cache_hit r =
  match event_of_result ~id ~tag:job.Job.tag ~cache_hit r with
  | ev -> ev
  | exception _ ->
    Proto.Job_failed
      { id; tag = job.Job.tag; kind = Campaign.kind_name Campaign.Crashed;
        message = "ptaintd: failed to serialize job result";
        policy_label = Campaign.label_of_policy job.Job.config.Ptaint_sim.Sim.policy;
        counters = Campaign.failure_counters Campaign.Crashed;
        trace = job.Job.trace }

(* Classify a wire event for the [ptaintd_jobs_total] outcome label
   without the worker-side Sim result at hand: failures carry their
   kind; finished jobs are classified from the stable
   {!Ptaint_sim.Sim.pp_outcome} prefix. *)
let outcome_of_event = function
  | Proto.Started _ -> "unknown"
  | Proto.Job_failed f -> f.kind
  | Proto.Finished f ->
    let has_prefix p =
      String.length f.outcome >= String.length p
      && String.sub f.outcome 0 (String.length p) = p
    in
    if has_prefix "exited" then "exited"
    else if has_prefix "SECURITY ALERT" then "alert"
    else if has_prefix "fault" then "fault"
    else if has_prefix "break trap" then "trap"
    else if has_prefix "instruction budget" then "out-of-fuel"
    else "unknown"

(* One job, booted through the calling domain's arena: the wire event
   and the result it was reduced from.  Both backends run every job
   here, so they emit identical events; the result aliases the arena
   and must be read before the next job boots. *)
let run_job ~images ~job_timeout ~id (job : Job.t) =
  let r, cache_hit = Campaign.run_job ?job_timeout ~keep:false images job in
  (event_of_job_result ~id ~job ~cache_hit r, r)

(* --- the loop-side record of a finished job ------------------------- *)

type done_job = {
  j_id : int;
  j_tag : string;
  j_outcome : string;
  j_cache_hit : bool;
  j_trace : (int * int) option;
  j_t0 : float;
  j_t1 : float;
  j_worker : int;
  j_superblock : (string * int) list;
}

(* Everything but the timing and the worker comes from the terminal
   event itself, so a job run in-process, one run in a worker process
   and one the supervisor synthesized are accounted alike.  A job is a
   cache hit only if it finished from a cached image. *)
let done_job ~t0 ~worker ?(superblock = []) ev =
  let id, tag, trace, cache_hit =
    match ev with
    | Proto.Finished f -> (f.id, f.tag, f.trace, f.cache_hit)
    | Proto.Job_failed f -> (f.id, f.tag, f.trace, false)
    | Proto.Started _ -> invalid_arg "Worker.done_job: Started is not terminal"
  in
  { j_id = id; j_tag = tag; j_outcome = outcome_of_event ev; j_cache_hit = cache_hit;
    j_trace = trace; j_t0 = t0; j_t1 = Unix.gettimeofday (); j_worker = worker;
    j_superblock = superblock }

(* --- the worker process loop ------------------------------------------ *)

type config = {
  cache_capacity : int;  (** per-worker image cache entries *)
  job_timeout : float option;  (** default watchdog; a job's own wins *)
}

(* Idle heartbeat period; the supervisor's tolerance is eight of them. *)
let beat_interval = 0.25

let main ~config ~rd ~wr =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let images = Campaign.Images.create ~capacity:config.cache_capacity in
  let inbox = Proto.request_reader () in
  let out = Proto.outbox () in
  let send resp =
    Proto.add_response out resp;
    Proto.flush_all out (Proto.write_fd wr)
  in
  send (Proto.Hello_ok { banner = "ptaintd-worker" });
  let rec next_request () =
    match Proto.next inbox with
    | Ok (Some req) -> Some req
    | Error _ -> None  (* garbled pipe: die; the supervisor respawns *)
    | Ok None -> (
      match Unix.select [ rd ] [] [] beat_interval with
      | [], _, _ ->
        send (Proto.Pong "hb");
        next_request ()
      | _ ->
        if Proto.fill inbox (Proto.read_fd rd) = 0 then None  (* supervisor gone *)
        else next_request ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> next_request ())
  in
  let rec loop () =
    match next_request () with
    | None | Some Proto.Quit -> ()
    | Some (Proto.Ping p) ->
      send (Proto.Pong p);
      loop ()
    | Some (Proto.Submit spec) ->
      let ev =
        match Proto.job_of_spec spec with
        | Ok job ->
          fst (run_job ~images ~job_timeout:config.job_timeout ~id:0 job)
        | Error m ->
          let kind = Campaign.Loader_error { where = "job spec"; message = m } in
          Proto.Job_failed
            { id = 0; tag = spec.Proto.spec_tag; kind = Campaign.kind_name kind; message = m;
              policy_label =
                Campaign.label_of_policy Ptaint_sim.Sim.Config.default.Ptaint_sim.Sim.policy;
              counters = Campaign.failure_counters kind;
              trace = spec.Proto.spec_trace }
      in
      send (Proto.Job_event ev);
      loop ()
    | Some (Proto.Hello _ | Proto.Stats_full) -> loop ()
  in
  loop ()
