(* ptaintd worker process: the child half of the supervision tree.

   In --isolate mode the daemon forks N of these; each owns its own
   image cache and runs one job at a time, so a wedged or crashing
   analysis costs one worker process, never the daemon.  IPC reuses
   the Proto codec over a pipe pair: the supervisor writes request
   frames down (Submit / Ping / Quit), the worker writes response
   frames up (Hello_ok on boot, Job_event per job, Pong heartbeats
   while idle).  The worker is single-threaded by design: while a job
   runs it cannot heartbeat, so the supervisor covers busy workers
   with the dispatch deadline instead of the heartbeat.

   Job ids are a supervisor concern — dispatch depth is one, so the
   supervisor always knows which job a worker's events belong to and
   rewrites the id on the way through.  Events here carry id 0.

   This module also owns the result→event serialization shared with
   the in-process backend ({!event_of_job_result}), so both execution
   paths emit byte-identical frames for identical results. *)

module Campaign = Ptaint_campaign.Campaign
module Job = Ptaint_campaign.Job

(* --- result -> wire event (shared with Server) ----------------------- *)

let max_event_stdout = 1 lsl 20

let truncate_stdout s =
  if String.length s <= max_event_stdout then s
  else String.sub s 0 max_event_stdout ^ "\n[stdout truncated by ptaintd]\n"

(* Closed, low-cardinality outcome classes: the [outcome] label of
   [ptaintd_jobs_total].  Failures use {!Campaign.kind_name}. *)
let outcome_class (o : Ptaint_sim.Sim.outcome) =
  match o with
  | Ptaint_sim.Sim.Exited _ -> "exited"
  | Ptaint_sim.Sim.Alert _ -> "alert"
  | Ptaint_sim.Sim.Fault _ -> "fault"
  | Ptaint_sim.Sim.Trap _ -> "trap"
  | Ptaint_sim.Sim.Out_of_fuel -> "out-of-fuel"

let exit_code_of (o : Ptaint_sim.Sim.outcome) =
  match o with
  | Ptaint_sim.Sim.Exited c -> c land 0xff
  | Ptaint_sim.Sim.Alert _ -> 3
  | Ptaint_sim.Sim.Fault _ | Ptaint_sim.Sim.Trap _ | Ptaint_sim.Sim.Out_of_fuel -> 4

let event_of_result ~id ~tag ~cache_hit (r : Campaign.job_result) =
  let counters = Campaign.job_counters r in
  match r.Campaign.status with
  | Campaign.Finished res ->
    Proto.Finished
      { id; tag;
        outcome = Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome res.Ptaint_sim.Sim.outcome;
        exit_code = exit_code_of res.Ptaint_sim.Sim.outcome;
        instructions = res.Ptaint_sim.Sim.instructions;
        syscalls = res.Ptaint_sim.Sim.syscalls;
        policy_label = r.Campaign.policy_label;
        cache_hit;
        counters;
        stdout = truncate_stdout res.Ptaint_sim.Sim.stdout;
        trace = r.Campaign.trace }
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
      { id; tag = job.Job.tag; kind = "crashed";
        message = "ptaintd: failed to serialize job result";
        policy_label = Campaign.label_of_policy job.Job.config.Ptaint_sim.Sim.policy;
        counters = [ ("jobs", 1); ("crashed", 1) ];
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

(* --- the worker process loop ------------------------------------------ *)

type config = {
  cache_capacity : int;  (** per-worker image cache entries *)
  job_timeout : float option;  (** default watchdog; a job's own wins *)
  beat_interval : float;  (** idle heartbeat period, seconds *)
}

let default_config =
  { cache_capacity = 16; job_timeout = None; beat_interval = 0.25 }

(* Run one spec with the full containment machinery; mirrors the
   in-process backend so the two paths produce identical events.  The
   job boots through the process's arena and its result is reduced to
   the event before the next job boots. *)
let run_spec ~cache ~job_timeout spec =
  match Proto.job_of_spec spec with
  | Error m ->
    Proto.Job_failed
      { id = 0; tag = spec.Proto.spec_tag; kind = "loader error"; message = m;
        policy_label =
          Campaign.label_of_policy Ptaint_sim.Sim.Config.default.Ptaint_sim.Sim.policy;
        counters = [ ("jobs", 1); ("loader errors", 1) ];
        trace = spec.Proto.spec_trace }
  | Ok job ->
    let r, cache_hit =
      match
        (* the cache consult is inside the classification net: a
           malformed source fails the job, never the worker *)
        match Cache.obtain cache job with
        | entry, hit -> `Cached (entry, hit)
        | exception _ -> `Build_failed
      with
      | `Cached (entry, hit) ->
        let run_sim ~deadline config _program =
          Ptaint_sim.Sim.run_template_arena ?deadline ~config entry.Cache.template
        in
        (Campaign.run_job ?job_timeout ~run_sim ~program:entry.Cache.program job, hit)
      | `Build_failed -> (Campaign.run_job ?job_timeout job, false)
    in
    event_of_job_result ~id:0 ~job ~cache_hit r

let main ~config ~rd ~wr =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cache = Cache.create ~capacity:config.cache_capacity () in
  let inbox = Proto.request_reader () in
  let out = Proto.outbox () in
  let send resp =
    Proto.add_response out resp;
    Proto.flush_all out (Proto.write_fd wr)
  in
  send (Proto.Hello_ok { server_version = Proto.version; banner = "ptaintd-worker" });
  let rec next_request () =
    match Proto.next inbox with
    | Ok (Some req) -> Some req
    | Error _ -> None  (* garbled pipe: die; the supervisor respawns *)
    | Ok None -> (
      match Unix.select [ rd ] [] [] config.beat_interval with
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
      send (Proto.Job_event (Proto.Started { id = 0 }));
      let ev = run_spec ~cache ~job_timeout:config.job_timeout spec in
      send (Proto.Job_event ev);
      loop ()
    | Some (Proto.Hello _ | Proto.Stats | Proto.Stats_full) -> loop ()
  in
  loop ()
