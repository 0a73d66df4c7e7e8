(* Run guest programs (Mini-C `.c`/`.mc` or SIMIPS assembly `.s`)
   under the pointer-taintedness architecture.

   Examples:
     ptaint-run victim.c --stdin-data "$(python exploit.py)"
     ptaint-run server.c --session "GET / HTTP/1.0" --policy control-only
     ptaint-run prog.s --policy none --trace-insns
     ptaint-run victim.c --trace out.json     # Chrome/Perfetto timeline
     ptaint-run -j 4 a.c b.c c.c d.c          # batch on 4 domains
*)

open Cmdliner
module Campaign = Ptaint_campaign.Campaign
module Checkpoint = Ptaint_campaign.Checkpoint
module Job = Ptaint_campaign.Job
module Gen = Ptaint_gen.Gen
module Fi = Ptaint_fi.Fi
module Proto = Ptaint_daemon.Proto
module Client = Ptaint_daemon.Client
module Worker = Ptaint_daemon.Worker
module Log = Ptaint_obs.Log

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Per-instruction trace: pc, disassembly, and the source-register
   values (with taint masks) the instruction is about to read. *)
let tracer limit =
  let count = ref 0 in
  fun (m : Ptaint_cpu.Machine.t) insn ->
    if !count < limit then begin
      incr count;
      let reads =
        Ptaint_isa.Insn.reads insn
        |> List.filter (fun r -> r <> 0)
        |> List.sort_uniq compare
        |> List.map (fun r ->
               Format.asprintf "%a=%a" Ptaint_isa.Reg.pp r Ptaint_taint.Tword.pp
                 (Ptaint_cpu.Regfile.get m.Ptaint_cpu.Machine.regs r))
        |> String.concat " "
      in
      Printf.eprintf "  %08x: %-28s %s\n" m.Ptaint_cpu.Machine.pc
        (Ptaint_isa.Insn.to_string insn) reads
    end
    else if !count = limit then begin
      incr count;
      Printf.eprintf "  ... trace truncated after %d instructions\n" limit
    end

exception Guest_error of string

let load_program path =
  let source = read_file path in
  try
    if Filename.check_suffix path ".s" then Ptaint_asm.Assembler.assemble_exn source
    else Ptaint_runtime.Runtime.compile source
  with Ptaint_cc.Cc.Error { line; message; phase } ->
    raise (Guest_error (Printf.sprintf "%s:%d: %s error: %s" path line phase message))

let write_chrome ?(dropped = 0) ch file =
  Ptaint_obs.Chrome.write_file ch file;
  Printf.eprintf "wrote %d trace events to %s%s\n" (Ptaint_obs.Chrome.event_count ch) file
    (if dropped > 0 then Printf.sprintf " (%d later guest events dropped)" dropped else "")

(* Single-program mode: full guest output, diagnostics on alert, and
   the session's structured events exported on request.  Observation
   is always on here — one interactive run never notices the cost. *)
let run_one path config disasm trace_file metrics plan job_timeout =
  let program = load_program path in
  if disasm then print_string (Ptaint_asm.Program.disassemble program);
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) job_timeout in
  let r =
    if plan = [] then Ptaint_sim.Sim.run ?deadline ~config program
    else begin
      let report = Fi.run_plan ?deadline ~plan (Ptaint_sim.Sim.boot ~config program) in
      List.iter
        (fun (a : Fi.applied) ->
          Format.eprintf "fault %s: %a@."
            (if a.Fi.ok then "injected" else "missed")
            Fi.pp_injection a.Fi.injection)
        report.Fi.applied;
      (if Ptaint_sim.Sim.detected report.Fi.result then
         match
           List.filter_map (fun (a : Fi.applied) ->
               if a.Fi.ok then Some a.Fi.injection.Fi.at else None)
             report.Fi.applied
         with
         | [] -> ()
         | ats ->
           let first = List.fold_left min max_int ats in
           Format.eprintf "detection latency: %d instructions after first injection@."
             (report.Fi.result.Ptaint_sim.Sim.instructions - first));
      report.Fi.result
    end
  in
  print_string r.Ptaint_sim.Sim.stdout;
  List.iteri
    (fun i m -> Printf.printf "[net reply %d] %s\n" (i + 1) (String.escaped m))
    r.Ptaint_sim.Sim.net_sent;
  Format.printf "--- %a (%s instructions%s)@."
    Ptaint_sim.Sim.pp_outcome r.Ptaint_sim.Sim.outcome
    (string_of_int r.Ptaint_sim.Sim.instructions)
    (match r.Ptaint_sim.Sim.cycles with
     | Some c -> Printf.sprintf ", %d cycles" c
     | None -> "");
  (match r.Ptaint_sim.Sim.outcome with
   | Ptaint_sim.Sim.Alert _ | Ptaint_sim.Sim.Fault _ ->
     print_string (Ptaint_sim.Diagnostics.report r)
   | _ -> ());
  if metrics then begin
    let ms = Ptaint_mem.Memory.stats r.Ptaint_sim.Sim.machine.Ptaint_cpu.Machine.mem in
    (* Single-run mode attaches the obs trace for alert diagnostics,
       which drives the per-step engine — the translation tier only
       engages on untraced runs (batch mode, the daemon), so show its
       counters only when it actually ran. *)
    let sb =
      let cs =
        Ptaint_cpu.Machine.superblock_counters r.Ptaint_sim.Sim.machine
      in
      if List.exists (fun (_, n) -> n > 0) cs then
        List.map (fun (event, n) -> ("run/superblock-" ^ event, n)) cs
      else []
    in
    print_string
      (Ptaint_report.Report.counters
         ([ ("run/loads", ms.Ptaint_mem.Memory.loads);
            ("run/tainted-loads", ms.Ptaint_mem.Memory.tainted_loads);
            ("run/stores", ms.Ptaint_mem.Memory.stores);
            ("run/tainted-stores", ms.Ptaint_mem.Memory.tainted_stores);
            ("run/syscalls", r.Ptaint_sim.Sim.syscalls) ]
         @ sb))
  end;
  (match trace_file with
   | Some file ->
     let ch = Ptaint_obs.Chrome.create () in
     (* one span for the whole run (1 guest cycle = 1 µs), then the
        cycle-stamped point events on the same track *)
     Ptaint_obs.Chrome.complete ch ~name:(Filename.basename path) ~cat:"run" ~tid:0
       ~ts_us:0. ~dur_us:(float_of_int r.Ptaint_sim.Sim.instructions) ();
     Ptaint_obs.Chrome.add_events ch (Ptaint_sim.Sim.events r);
     let dropped =
       Option.fold ~none:0 ~some:Ptaint_obs.Trace.dropped
         (Ptaint_cpu.Machine.trace r.Ptaint_sim.Sim.machine)
     in
     write_chrome ~dropped ch file
   | None -> ());
  Ptaint_sim.Sim.exit_code r.Ptaint_sim.Sim.outcome

(* Client-seeded correlation id: one 63-bit trace id per invocation,
   one span id per submitted job.  Wall-clock xor pid seeding is fine
   here — the id only needs to be distinct across invocations, never
   reproducible. *)
let fresh_trace_id () =
  let us = int_of_float (Unix.gettimeofday () *. 1e6) in
  Fi.Rng.next (Fi.Rng.create (us lxor (Unix.getpid () * 0x1e3779b97f4a7c15)))

let trace_log_fields = function
  | None -> []
  | Some (tid, span) -> [ Log.str "trace" (Log.hex_id tid); Log.int "span" span ]

(* --watch: a refreshing one-line health summary on stderr.  Counts
   are absolute (a resumed campaign starts at its cursor), elapsed
   includes prior runs' checkpointed wall time, and the ETA is the
   remaining jobs over the cumulative rate. *)
type watch = {
  w_total : int;
  mutable w_done : int;
  mutable w_alerts : int;
  mutable w_failed : int;
  w_prior : float;  (* seconds from earlier runs of this campaign *)
  w_t0 : float;
  mutable w_last : float;
}

let fmt_duration s =
  if s >= 3600. then Printf.sprintf "%dh%02dm" (int_of_float s / 3600) (int_of_float s mod 3600 / 60)
  else if s >= 60. then Printf.sprintf "%dm%02ds" (int_of_float s / 60) (int_of_float s mod 60)
  else Printf.sprintf "%.0fs" s

let watch_paint ?(force = false) w =
  let now = Unix.gettimeofday () in
  if force || now -. w.w_last >= 0.5 then begin
    w.w_last <- now;
    let elapsed = now -. w.w_t0 +. w.w_prior in
    let rate = if elapsed > 0. then float_of_int w.w_done /. elapsed else 0. in
    let eta =
      if rate > 0. && w.w_done < w.w_total then
        " eta " ^ fmt_duration (float_of_int (w.w_total - w.w_done) /. rate)
      else ""
    in
    Printf.eprintf "\r%3d%% %d/%d jobs  %.0f jobs/s  alerts %d  failed %d  elapsed %s%s \x1b[K%!"
      (if w.w_total > 0 then 100 * w.w_done / w.w_total else 100)
      w.w_done w.w_total rate w.w_alerts w.w_failed (fmt_duration elapsed) eta
  end

(* --- batch campaigns: one driver ---------------------------------------

   Every batch mode is a source of Job.t values run by an executor.
   The source is the PROGRAM paths or a seeded generative campaign;
   the executor is the local engine or a ptaintd instance.  Both
   executors hand back one job summary per job, folded into the tally,
   in submission order; everything around them — per-job lines, the
   JSONL sink, checkpoints, --metrics, --watch, --log and --trace — is
   written once, here. *)

let payload_of path =
  let source = read_file path in
  if Filename.check_suffix path ".s" then Job.Asm_source source else Job.C_source source

type source =
  | Programs of { paths : string array; payloads : Job.payload array;
                  config : Ptaint_sim.Sim.config; trace_id : int }
  | Generated of Gen.spec

let source_total = function
  | Programs p -> Array.length p.paths
  | Generated g -> Gen.jobs_of g

(* The one job builder.  A file becomes the symbolic payload of a
   Job.t: the engine (or the daemon) owns the build, so a malformed
   source is a classified per-job failure, never a CLI crash. *)
let source_job source ~job_timeout i =
  let job =
    match source with
    | Programs p ->
      let path = p.paths.(i) in
      let argv = Filename.basename path :: p.config.Ptaint_sim.Sim.argv in
      Job.make ~tag:path ~config:{ p.config with Ptaint_sim.Sim.argv }
        ~trace:(p.trace_id, i + 1) p.payloads.(i)
    | Generated g -> Gen.job g i
  in
  match job_timeout with Some _ -> { job with Job.timeout = job_timeout } | None -> job

(* An executor runs the jobs from [start] on, folds each summary into
   [tally] and passes it on with the guest's stdout (when it has it),
   in submission order. *)
type executor =
  start:int -> tally:Campaign.tally -> Job.t Seq.t ->
  (Campaign.job_summary -> string -> unit) -> unit

let local_executor domains : executor =
 fun ~start ~tally jobs on_record ->
  ignore
    (Campaign.run_stream ?domains ~start ~tally ~on_result:(fun s -> on_record s "") jobs)

(* The canonical policy label travels on the wire; the daemon derives
   the same report label from it as the local engine does. *)
let wire_spec ~campaign i (j : Job.t) =
  let policy =
    List.find_map
      (fun (l, p) -> if p = j.Job.config.Ptaint_sim.Sim.policy then Some l else None)
      Ptaint_sim.Sim.policy_labels
  in
  match Proto.spec_of_job ?policy j with
  | Error e -> invalid_arg e
  | Ok spec ->
    (* Campaign id + index is a natural idempotency key: a resubmit
       after a dropped connection attaches to the original admission
       instead of running (and counting) the job twice. *)
    { spec with Proto.spec_idem = Option.map (fun id -> Printf.sprintf "%s#%d" id i) campaign }

(* Reduce a daemon outcome to the summary the local engine produces;
   [times] holds the Started..terminal wall clock per job id. *)
let summary_of_outcome times i (spec : Proto.job_spec) (o : Client.outcome) =
  let timing id =
    let now = Unix.gettimeofday () in
    let started, finished = Option.value ~default:(now, now) (Hashtbl.find_opt times id) in
    { Campaign.started; finished; domain = 0 }
  in
  let base =
    { Campaign.s_index = i; s_name = spec.Proto.spec_tag; s_label = "unlabelled";
      s_outcome = "rejected"; s_counters = [ ("jobs", 1); ("rejected", 1) ];
      s_failed = true; s_violation = false; s_detected = false; s_alert_pc = None;
      s_instructions = 0; s_syscalls = 0; s_attempts = 1; s_trace = None;
      s_detail = Campaign.Text ""; s_exit_code = 2; s_timing = timing (-1) }
  in
  match o with
  | Client.Done (Proto.Finished f as ev) ->
    ( { base with
        s_name = f.tag; s_label = f.policy_label; s_outcome = Worker.outcome_of_event ev;
        s_counters = f.counters; s_failed = false; s_detected = f.alert_pc <> None;
        s_alert_pc = f.alert_pc; s_instructions = f.instructions; s_syscalls = f.syscalls;
        s_trace = f.trace; s_detail = Campaign.Text f.outcome; s_exit_code = f.exit_code;
        s_timing = timing f.id },
      f.stdout )
  | Client.Done (Proto.Job_failed f) ->
    ( { base with
        s_name = f.tag; s_label = f.policy_label; s_outcome = f.kind; s_counters = f.counters;
        s_trace = f.trace; s_detail = Campaign.Text f.message; s_exit_code = 4;
        s_timing = timing f.id },
      "" )
  | Client.Done (Proto.Started _) -> (base, "")
  | Client.Refused reason -> ({ base with s_detail = Campaign.Text reason }, "")

(* The daemon executor: windows of jobs through one connection.
   Admission bounces (per-client quota, server-wide queue) are
   backpressure, not job outcomes: resubmit until the daemon accepts.
   "Draining" and malformed specs are terminal. *)
let remote_executor ~campaign sock : executor =
 fun ~start ~tally jobs on_record ->
  let c = Client.connect ~client:"ptaint-run" ~retries:5 sock in
  let times = Hashtbl.create 64 in
  let on_event ev =
    let now = Unix.gettimeofday () in
    match ev with
    | Proto.Started { id } -> Hashtbl.replace times id (now, now)
    | Proto.Finished { id; _ } | Proto.Job_failed { id; _ } ->
      let started = match Hashtbl.find_opt times id with Some (t, _) -> t | None -> now in
      Hashtbl.replace times id (started, now)
  in
  let transient reason =
    let has needle =
      let n = String.length needle and l = String.length reason in
      let rec go i = i + n <= l && (String.sub reason i n = needle || go (i + 1)) in
      go 0
    in
    has "quota exceeded" || has "queue full"
  in
  let run_window specs =
    let outcomes = Array.of_list (Client.run_batch ~on_event c (Array.to_list specs)) in
    let rec settle () =
      let pending = ref [] in
      Array.iteri
        (fun k o ->
          match o with
          | Client.Refused reason when transient reason -> pending := k :: !pending
          | _ -> ())
        outcomes;
      match List.rev !pending with
      | [] -> ()
      | ks ->
        (* if nothing was accepted this pass, the queue is full of
           other clients' work — back off before resubmitting *)
        if List.length ks = Array.length specs then Unix.sleepf 0.05;
        let again = Client.run_batch ~on_event c (List.map (fun k -> specs.(k)) ks) in
        List.iter2 (fun k o -> outcomes.(k) <- o) ks again;
        settle ()
    in
    settle ();
    outcomes
  in
  let rec take n acc jobs =
    if n = 0 then (List.rev acc, jobs)
    else match jobs () with
      | Seq.Nil -> (List.rev acc, jobs)
      | Seq.Cons (j, rest) -> take (n - 1) (j :: acc) rest
  in
  let rec loop i jobs =
    match take 64 [] jobs with
    | [], _ -> ()
    | window, rest ->
      let specs = Array.of_list (List.mapi (fun k j -> wire_spec ~campaign (i + k) j) window) in
      Array.iteri
        (fun k o ->
          let s, stdout = summary_of_outcome times (i + k) specs.(k) o in
          Campaign.tally_add tally s;
          on_record s stdout)
        (run_window specs);
      Hashtbl.reset times;
      loop (i + Array.length specs) rest
  in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> loop start jobs)

(* Load the manifest (if any) and reconcile the JSONL sink with its
   cursor.  A fresh start clears a stale sink so line counts always
   equal job counts. *)
let checkpoint_resume ~campaign_id ~total checkpoint results_path =
  match checkpoint with
  | Some path when Sys.file_exists path -> (
    match Checkpoint.parse (In_channel.with_open_bin path In_channel.input_all) with
    | exception Sys_error e -> Error (Printf.sprintf "checkpoint %s: %s" path e)
    | Error e -> Error (Printf.sprintf "checkpoint %s: %s" path e)
    | Ok m ->
      if m.Checkpoint.id <> campaign_id then
        Error
          (Printf.sprintf
             "checkpoint %s belongs to a different campaign\n  manifest:  %s\n  requested: %s"
             path m.Checkpoint.id campaign_id)
      else if m.Checkpoint.cursor > total then
        Error (Printf.sprintf "checkpoint %s: cursor %d beyond %d jobs" path
                 m.Checkpoint.cursor total)
      else (
        match results_path with
        | Some rp -> (
          match Checkpoint.truncate_jsonl ~path:rp ~lines:m.Checkpoint.cursor with
          | Ok () ->
            Ok (m.Checkpoint.cursor, Campaign.load_tally m.Checkpoint.dump,
                m.Checkpoint.elapsed_us)
          | Error e -> Error e)
        | None ->
          Ok (m.Checkpoint.cursor, Campaign.load_tally m.Checkpoint.dump,
              m.Checkpoint.elapsed_us)))
  | _ ->
    (match results_path with
     | Some rp -> ignore (Checkpoint.truncate_jsonl ~path:rp ~lines:0)
     | None -> ());
    Ok (0, Campaign.tally (), 0)

let detail_text (s : Campaign.job_summary) =
  match s.Campaign.s_detail with
  | Campaign.Outcome o -> Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome o
  | Campaign.Text t -> t

let job_line (s : Campaign.job_summary) =
  if s.Campaign.s_outcome = "rejected" then
    Printf.sprintf "%-32s rejected: %s" s.Campaign.s_name (detail_text s)
  else if s.Campaign.s_failed then
    Printf.sprintf "%-32s job failed (%s): %s" s.Campaign.s_name s.Campaign.s_outcome
      (detail_text s)
  else
    Printf.sprintf "%-32s %s (%d instructions, %d syscalls)" s.Campaign.s_name
      (detail_text s) s.Campaign.s_instructions s.Campaign.s_syscalls

let run_batch source (execute : executor) ~job_timeout ~metrics ~timings ~checkpoint ~every
    ~results_path ~log ~watch ~trace_file =
  let total = source_total source in
  (* only a generated campaign has an identity to resume by *)
  let campaign_id, checkpoint =
    match source with
    | Generated g -> (Gen.id g, checkpoint)
    | Programs _ -> ("", None)
  in
  match checkpoint_resume ~campaign_id ~total checkpoint results_path with
  | Error e ->
    prerr_endline e;
    2
  | Ok (start, tally, prior_us) ->
    if start > 0 then Printf.eprintf "resuming at job %d/%d\n%!" start total;
    (match (log, source) with
     | Some l, Programs p ->
       Log.info l ~src:"ptaint-run" "batch submitted"
         [ Log.int "jobs" total; Log.str "trace" (Log.hex_id p.trace_id) ]
     | Some l, Generated _ ->
       Log.info l ~src:"ptaint-run" "batch submitted"
         [ Log.int "jobs" total; Log.str "campaign" campaign_id; Log.int "start" start ]
     | None, _ -> ());
    let sink =
      Option.map
        (fun rp -> open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 rp)
        results_path
    in
    let t0 = Unix.gettimeofday () in
    let elapsed_now () = prior_us + int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
    let w =
      if watch then begin
        (* counts are absolute: a resumed campaign starts from its manifest *)
        let prior = Campaign.tally_stats tally in
        Some
          { w_total = total; w_done = start;
            w_alerts = List.fold_left (fun n (_, d) -> n + d) 0 prior.Campaign.detections;
            w_failed = prior.Campaign.failed; w_prior = float_of_int prior_us /. 1e6;
            w_t0 = t0; w_last = 0. }
      end
      else None
    in
    let chrome = Option.map (fun _ -> Ptaint_obs.Chrome.create ()) trace_file in
    let cursor = ref start and last_ckpt = ref start and code = ref 0 in
    let save_ckpt () =
      match checkpoint with
      | None -> ()
      | Some path -> (
        (* the sink must be on disk before the manifest points past
           its lines — resume truncates any overshoot *)
        (match sink with Some oc -> flush oc | None -> ());
        (* a failed checkpoint costs freshness, not the campaign: the
           previous manifest is still valid, so warn and keep running
           without advancing the checkpoint cursor *)
        match
          Checkpoint.save ~path
            { Checkpoint.id = campaign_id; total; cursor = !cursor;
              elapsed_us = elapsed_now (); dump = Campaign.dump_tally tally }
        with
        | () ->
          last_ckpt := !cursor;
          Option.iter
            (fun l ->
              Log.info l ~src:"campaign" "checkpoint written"
                [ Log.str "path" path; Log.int "cursor" !cursor;
                  Log.int "elapsed_us" (elapsed_now ()) ])
            log
        | exception Checkpoint.Checkpoint_write_error { path; reason } ->
          Printf.eprintf "warning: checkpoint %s not written: %s\n%!" path reason;
          Option.iter
            (fun l ->
              Log.warn l ~src:"campaign" "checkpoint write failed"
                [ Log.str "path" path; Log.str "reason" reason; Log.int "cursor" !cursor ])
            log)
    in
    let on_record (s : Campaign.job_summary) stdout =
      (match source with
       | Programs _ ->
         if total = 1 then print_string stdout;
         print_endline (job_line s)
       | Generated _ -> ());
      code := max !code s.Campaign.s_exit_code;
      Option.iter
        (fun oc ->
          output_string oc (Campaign.jsonl_of_summary s);
          output_char oc '\n')
        sink;
      let ms = (s.Campaign.s_timing.finished -. s.Campaign.s_timing.started) *. 1e3 in
      Option.iter
        (fun l ->
          let fields =
            [ Log.int "index" s.Campaign.s_index; Log.str "tag" s.Campaign.s_name;
              Log.str "policy" s.Campaign.s_label; Log.str "outcome" s.Campaign.s_outcome;
              Log.float "ms" ms ]
            @ trace_log_fields s.Campaign.s_trace
          in
          if s.Campaign.s_failed then
            Log.warn l ~src:"campaign" "job failed"
              (fields @ [ Log.int "attempts" s.Campaign.s_attempts;
                          Log.str "message" (detail_text s) ])
          else Log.debug l ~src:"campaign" "job finished" fields)
        log;
      Option.iter
        (fun w ->
          w.w_done <- w.w_done + 1;
          if s.Campaign.s_failed then w.w_failed <- w.w_failed + 1;
          if s.Campaign.s_detected then w.w_alerts <- w.w_alerts + 1;
          watch_paint w)
        w;
      Option.iter
        (fun ch ->
          Ptaint_obs.Chrome.job_span ch ~name:s.Campaign.s_name ~cat:"client" ~pid:1
            ~tid:s.Campaign.s_timing.domain ~started:s.Campaign.s_timing.started
            ~finished:s.Campaign.s_timing.finished ~outcome:s.Campaign.s_outcome
            ?trace:s.Campaign.s_trace ())
        chrome;
      incr cursor;
      if !cursor - !last_ckpt >= every then save_ckpt ()
    in
    execute ~start ~tally
      (Seq.init (total - start) (fun k -> source_job source ~job_timeout (start + k)))
      on_record;
    if !cursor > !last_ckpt then save_ckpt ();
    Option.iter (fun w -> watch_paint ~force:true w; prerr_newline ()) w;
    Option.iter close_out sink;
    (match (trace_file, chrome) with
     | Some file, Some ch -> write_chrome ch file
     | _ -> ());
    let stats = Campaign.tally_stats ~wall_seconds:(Unix.gettimeofday () -. t0) tally in
    match source with
    | Programs _ ->
      if metrics then print_string (Campaign.metrics_table ~timings stats);
      !code
    | Generated _ ->
      Format.printf "generative campaign: %d/%d jobs, %d distinct detection sites@." !cursor
        total
        (List.length (Campaign.tally_sites tally));
      Format.printf "%a@." Campaign.pp_stats stats;
      if metrics then print_string (Campaign.metrics_table ~timings stats);
      if !cursor = total then 0 else 4

let print_daemon_stats sock =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let c = Client.connect ~client:"ptaint-run" sock in
  let text = Client.stats_full c in
  Client.close c;
  print_string text;
  0

let parse_injections specs =
  List.fold_left
    (fun acc spec ->
      match (acc, Fi.parse spec) with
      | Error _, _ -> acc
      | Ok l, Ok i -> Ok (l @ [ i ])
      | Ok _, Error e -> Error e)
    (Ok []) specs

(* Which run modes honour each option (the README carries the same
   table): an option given where it does nothing is answered with a
   note instead of being dropped silently. *)
type mode = Single | Batch | Connect | Generate | Generate_connect

let mode_name = function
  | Single -> "single-program"
  | Batch -> "batch (-j)"
  | Connect -> "--connect"
  | Generate -> "--generate"
  | Generate_connect -> "--generate --connect"

let note_ignored mode options =
  List.iter
    (fun (option, given, honoured_in) ->
      if given && not (List.mem mode honoured_in) then
        Printf.eprintf "note: %s is ignored in %s mode\n%!" option (mode_name mode))
    options

let run paths policy_name stdin_data sessions args disasm timing trace_file trace_insns
    trace_limit metrics timings domains inject_specs job_timeout connect daemon_stats
    generate seed variants checkpoint checkpoint_every results_path log_file log_level
    log_format watch =
  match (Ptaint_sim.Sim.policy_of_label policy_name, parse_injections inject_specs) with
  | Error e, _ | _, Error e ->
    prerr_endline e;
    2
  | _ when (match job_timeout with Some t -> not (t > 0.) | None -> false) ->
    prerr_endline "--job-timeout takes a positive number of seconds";
    2
  | Ok policy, Ok plan -> (
    let level =
      match Log.level_of_string log_level with
      | Ok l -> l
      | Error m -> prerr_endline m; exit 2
    in
    let format =
      match Log.format_of_string log_format with
      | Ok f -> f
      | Error m -> prerr_endline m; exit 2
    in
    let logger =
      match log_file with
      | None -> None
      | Some path ->
        Some (Log.create ~level ~format (Log.file_sink ~max_bytes:(64 * 1024 * 1024) path))
    in
    Fun.protect
      ~finally:(fun () -> match logger with Some l -> Log.close l | None -> ())
    @@ fun () ->
    let notes mode =
      let batch = [ Batch; Connect; Generate; Generate_connect ]
      and programs = [ Single; Batch; Connect ] in
      note_ignored mode
        [ ("--policy", policy_name <> "full", programs);
          ("--stdin-data", stdin_data <> "", programs);
          ("--session", sessions <> [], programs);
          ("--arg", args <> [], programs);
          ("--disasm", disasm, [ Single ]);
          ("--timing", timing, [ Single; Batch ]);
          ("--trace-insns", trace_insns, [ Single ]);
          ("--inject", plan <> [], [ Single ]);
          ("--timings", timings, batch);
          ("-j", domains <> None, [ Batch; Generate ]);
          ("--checkpoint", checkpoint <> None, [ Generate; Generate_connect ]);
          ("--results", results_path <> None, batch);
          ("--log", log_file <> None, batch);
          ("--watch", watch, batch) ]
    in
    let config =
      { Ptaint_sim.Sim.default_config with
        Ptaint_sim.Sim.policy;
        stdin = stdin_data;
        sessions = List.map (fun s -> [ s ]) sessions;
        argv = args;
        timing }
    in
    let batch source =
      let mode, execute =
        match (source, connect) with
        | Programs _, None -> (Batch, local_executor domains)
        | Generated _, None -> (Generate, local_executor domains)
        | Programs _, Some sock -> (Connect, remote_executor ~campaign:None sock)
        | Generated g, Some sock -> (Generate_connect, remote_executor ~campaign:(Some (Gen.id g)) sock)
      in
      notes mode;
      if connect <> None then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      run_batch source execute ~job_timeout ~metrics ~timings ~checkpoint
        ~every:checkpoint_every ~results_path ~log:logger ~watch ~trace_file
    in
    try
      match (daemon_stats, connect, paths) with
      | _ when generate <> None && paths <> [] ->
        prerr_endline "--generate replaces PROGRAM arguments; give one or the other";
        2
      | _ when generate <> None -> (
        match Gen.spec ~variants ~seed ~jobs:(Option.get generate) () with
        | exception Invalid_argument e ->
          prerr_endline e;
          2
        | spec -> batch (Generated spec))
      | true, None, _ ->
        prerr_endline "--daemon-stats needs --connect SOCKET";
        2
      | true, Some sock, _ -> print_daemon_stats sock
      | false, _, [] ->
        prerr_endline "no guest program given";
        2
      | false, None, [ path ] ->
        notes Single;
        let config =
          { config with
            Ptaint_sim.Sim.argv = Filename.basename path :: args;
            obs = true;
            on_step = (if trace_insns then Some (tracer trace_limit) else config.on_step) }
        in
        run_one path config disasm trace_file metrics plan job_timeout
      | false, _, paths ->
        let paths = Array.of_list paths in
        batch
          (Programs
             { paths; payloads = Array.map payload_of paths; config;
               trace_id = fresh_trace_id () })
    with
    | Guest_error e ->
      prerr_endline e;
      2
    | Sys_error e ->
      prerr_endline e;
      2
    | Ptaint_sim.Sim.Timeout { instructions } ->
      Printf.eprintf "watchdog: job timeout after %d instructions\n" instructions;
      4
    | Ptaint_asm.Loader.Error err ->
      Format.eprintf "loader error: %a@." Ptaint_asm.Loader.pp_error err;
      2
    | Ptaint_asm.Assembler.Asm_error { line; message } ->
      Printf.eprintf "assembly error: line %d: %s\n" line message;
      2
    | Ptaint_os.Kernel.Guest_fault { sysnum; pc; args } ->
      Printf.eprintf "guest fault: syscall %d at pc 0x%08x (args %s)\n" sysnum pc
        (String.concat ", " (List.map string_of_int args));
      4
    | Client.Protocol_error e ->
      prerr_endline ("daemon protocol error: " ^ e);
      2
    | Unix.Unix_error (err, fn, arg) ->
      Printf.eprintf "daemon connection error: %s: %s %s\n" (Unix.error_message err) fn arg;
      2)

let paths_arg = Arg.(value & pos_all file [] & info [] ~docv:"PROGRAM")

let policy_arg =
  Arg.(value & opt string "full" & info [ "policy"; "p" ] ~docv:"POLICY"
         ~doc:"Protection policy: full, control-only, none, or baseline.")

let stdin_arg =
  Arg.(value & opt string "" & info [ "stdin-data" ] ~docv:"DATA" ~doc:"Guest standard input.")

let session_arg =
  Arg.(value & opt_all string [] & info [ "session" ] ~docv:"MSG"
         ~doc:"Scripted network session (repeatable; one message per option).")

let args_arg =
  Arg.(value & opt_all string [] & info [ "arg" ] ~docv:"ARG" ~doc:"Guest argv entry (repeatable).")

let disasm_arg = Arg.(value & flag & info [ "disasm" ] ~doc:"Print the disassembly before running.")
let timing_arg = Arg.(value & flag & info [ "timing" ] ~doc:"Run through the pipeline timing model.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace_event JSON timeline to $(docv): taint introductions, \
               propagation milestones, syscalls and alerts for a single run; one span per \
               job (per worker domain) in batch mode.  Load it in chrome://tracing or \
               ui.perfetto.dev.")

let trace_insns_arg =
  Arg.(value & flag & info [ "trace-insns" ]
         ~doc:"Trace executed instructions to stderr (the pre-observability tracer).")

let trace_limit_arg =
  Arg.(value & opt int 200 & info [ "trace-limit" ] ~docv:"N"
         ~doc:"Stop the --trace-insns trace after N instructions (default 200).")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print taint-activity counters after the run (full per-policy table in \
               batch mode).")

let timings_arg =
  Arg.(value & flag & info [ "timings" ]
         ~doc:"With --metrics in batch mode: add the per-job wall-clock histogram rows \
               (non-deterministic; the default table is counters-only so runs can be \
               diffed).")

let domains_arg =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"With several PROGRAMs: run the batch on N domains (default: all cores).")

let inject_arg =
  Arg.(value & opt_all string [] & info [ "inject" ] ~docv:"SPEC"
         ~doc:"Inject a fault at a guest instruction count (repeatable; single-program \
               mode).  SPEC is MODEL\\@ICOUNT[:TARGET], e.g. \
               data-flip\\@1000:0x10000000.3, reg-flip\\@500:4.7, \
               taint-loss\\@2000:0x10000000+64, spurious-taint\\@2000:0x10000000+64, \
               stuck-clean\\@1:0x10000000+4096, reg-taint-loss\\@100:29, \
               reg-spurious-taint\\@100:29, taint-wipe\\@1500.")

let job_timeout_arg =
  Arg.(value & opt (some float) None & info [ "job-timeout" ] ~docv:"SECONDS"
         ~doc:"Wall-clock watchdog: abort a guest that runs longer than $(docv) \
               (cooperative, checked at fuel-slice boundaries).  In batch (-j) mode the \
               timed-out job is reported as a timeout failure and the rest of the batch \
               completes.")

let connect_arg =
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"SOCKET"
         ~doc:"Submit the PROGRAMs (or the --generate campaign) to a running ptaintd \
               instance on the Unix-domain $(docv) instead of simulating in-process.  \
               Jobs stream back as events; output, --metrics tables and --results lines \
               match local batch mode byte-for-byte.")

let daemon_stats_arg =
  Arg.(value & flag & info [ "daemon-stats" ]
         ~doc:"With --connect: print the daemon's metrics registry (cache hits, jobs, \
               clients, latency histograms) as Prometheus text and exit.")

let generate_arg =
  Arg.(value & opt (some int) None & info [ "generate" ] ~docv:"N"
         ~doc:"Run a generative campaign of $(docv) seeded synthetic jobs instead of \
               PROGRAM files: streamed execution with bounded memory at any job count; \
               combine with --checkpoint for kill-and-resume and --results for a JSONL \
               result sink.  With --connect the jobs go to a ptaintd instance.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Generative campaign seed: every job is a pure function of (seed, index), \
               so the stream is identical at any -j and across resumes.")

let variants_arg =
  Arg.(value & opt int 8 & info [ "variants" ] ~docv:"V"
         ~doc:"Distinct generated programs in the campaign pool (default 8).")

let checkpoint_arg =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Write a resumable manifest (seed, cursor, merged counters) to $(docv) \
               atomically every --checkpoint-every jobs; rerunning the same command \
               resumes from the manifest instead of starting over.")

let checkpoint_every_arg =
  Arg.(value & opt int 1000 & info [ "checkpoint-every" ] ~docv:"N"
         ~doc:"Jobs between checkpoint manifests (default 1000).")

let results_arg =
  Arg.(value & opt (some string) None & info [ "results" ] ~docv:"FILE"
         ~doc:"Append one JSON line per completed job to $(docv), in every batch mode \
               (streaming sink; kept consistent with --checkpoint across kill-and-resume; \
               lines of PROGRAM batches carry the invocation's trace id).")

let log_arg =
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
         ~doc:"Write a structured client-side log (batch lifecycle, job failures, \
               checkpoint writes) to $(docv), size-rotated at 64 MiB.")

let log_level_arg =
  Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL"
         ~doc:"Minimum level for --log: debug, info, warn or error.")

let log_format_arg =
  Arg.(value & opt string "logfmt" & info [ "log-format" ] ~docv:"FMT"
         ~doc:"--log record rendering: $(b,logfmt) (key=value) or $(b,json) (one \
               object per line).")

let watch_arg =
  Arg.(value & flag & info [ "watch" ]
         ~doc:"Refreshing one-line progress summary on stderr: completion percentage, \
               throughput, alert and failure counts, elapsed time and ETA (cumulative \
               across --checkpoint resumes).")

let cmd =
  let doc = "run guest programs on the pointer-taintedness architecture" in
  Cmd.v (Cmd.info "ptaint-run" ~doc)
    Term.(const run $ paths_arg $ policy_arg $ stdin_arg $ session_arg $ args_arg $ disasm_arg
          $ timing_arg $ trace_arg $ trace_insns_arg $ trace_limit_arg $ metrics_arg
          $ timings_arg $ domains_arg $ inject_arg $ job_timeout_arg $ connect_arg
          $ daemon_stats_arg $ generate_arg $ seed_arg $ variants_arg $ checkpoint_arg
          $ checkpoint_every_arg $ results_arg $ log_arg $ log_level_arg $ log_format_arg
          $ watch_arg)

let () = exit (Cmd.eval' cmd)
