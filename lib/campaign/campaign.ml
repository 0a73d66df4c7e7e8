module Pool = Ptaint_pool.Pool

let label_of_policy (p : Ptaint_cpu.Policy.t) =
  match p.Ptaint_cpu.Policy.mode with
  | Ptaint_cpu.Policy.No_protection -> "no protection"
  | Ptaint_cpu.Policy.Control_data_only -> "control-data only"
  | Ptaint_cpu.Policy.Pointer_taintedness -> "pointer taintedness"

let job_label (spec : Job.t) =
  match spec.Job.policy_label with
  | Some l -> l
  | None -> label_of_policy spec.Job.config.Ptaint_sim.Sim.policy

(* --- typed failure taxonomy ---

   A job that does not produce a simulation result fails for one of
   four reasons, and the campaign must be able to tell them apart
   without string matching: a watchdog timeout is an experiment
   parameter, a guest fault is a property of the guest under test, a
   loader error is a malformed input, and only the remainder is an
   actual crash of the harness (the sole transient kind worth
   retrying). *)

type failure_kind =
  | Timeout of { seconds : float }
  | Guest_fault of { sysnum : int; pc : int; args : int list }
  | Loader_error of { where : string; message : string }
  | Crashed

type failure = { kind : failure_kind; exn : string; backtrace : string }

type status =
  | Finished of Ptaint_sim.Sim.result
  | Failed of failure

let kind_name = function
  | Timeout _ -> "timeout"
  | Guest_fault _ -> "guest fault"
  | Loader_error _ -> "loader error"
  | Crashed -> "crashed"

let classify ~job_timeout = function
  | Ptaint_sim.Sim.Timeout _ ->
    Timeout { seconds = Option.value ~default:0. job_timeout }
  | Ptaint_os.Kernel.Guest_fault { sysnum; pc; args } -> Guest_fault { sysnum; pc; args }
  | Ptaint_asm.Loader.Error { where; message } -> Loader_error { where; message }
  | Ptaint_asm.Assembler.Asm_error { line; message } ->
    Loader_error { where = Printf.sprintf "line %d" line; message }
  | Ptaint_cc.Cc.Error { line; message; phase } ->
    Loader_error { where = Printf.sprintf "%s, line %d" phase line; message }
  | _ -> Crashed

type timing = { started : float; finished : float; domain : int }

type job_result = {
  name : string;
  policy_label : string;
  status : status;
  violation : string option;
  attempts : int;
  timing : timing;
  trace : (int * int) option;
}

let result_exn r =
  match r.status with
  | Finished result -> result
  | Failed f ->
    invalid_arg
      (Printf.sprintf "job %s failed (%s) after %d attempt(s): %s\n%s" r.name
         (kind_name f.kind) r.attempts f.exn f.backtrace)

type stats = {
  jobs : int;
  failed : int;
  violations : int;
  wall_seconds : float;
  instructions : int;
  syscalls : int;
  detections : (string * int) list;
  metrics : (string * Ptaint_obs.Metrics.t) list;
}

(* --- the image cache ---

   Repeat programs are the common case everywhere jobs run: a
   generative stream draws from a bounded variant pool, and ptaintd
   sees the same attack program swept over policies, payloads and
   fault plans.  The first job to need an image builds the program
   and its boot image ({!Ptaint_sim.Sim.prepare}: pre-decoded blocks
   plus the copy-on-write snapshot); every later job with the same
   {!Job.image_key} reuses both by reference, under its own policy,
   stdin and fuel.

   One cache is shared by all of a process's worker domains.  Builds
   run outside the lock, so distinct programs compile in parallel; two
   builds racing on one key both finish, and the first to publish
   survives — the loser's job runs the survivor's image, so every job
   of that key shares one set of superblock tiers.  Eviction is LRU by
   a monotonic use clock (a hit is O(1), no recency list) and happens
   in the critical section that publishes the incoming entry, before
   the insert: at most [capacity] images are ever reachable.  The
   lock is taken bare, not through [Fun.protect]: nothing under it
   can raise, and a lookup then allocates no closure. *)
module Images = struct
  type slot = { image : Ptaint_sim.Sim.template; mutable last_use : int }

  type t = {
    mu : Mutex.t;
    table : (string, slot) Hashtbl.t;
    capacity : int;
    mutable clock : int;  (* bumps on every hit or insert *)
    mutable evictions : int;
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Campaign.Images.create: capacity must be >= 1";
    { mu = Mutex.create ();
      table = Hashtbl.create (2 * capacity);
      capacity;
      clock = 0;
      evictions = 0 }

  (* The helpers below run with [t.mu] held. *)
  let tick t =
    t.clock <- t.clock + 1;
    t.clock

  let evict_lru t =
    let victim =
      Hashtbl.fold
        (fun key s acc ->
          match acc with
          | Some (_, best) when best <= s.last_use -> acc
          | _ -> Some (key, s.last_use))
        t.table None
    in
    match victim with
    | None -> ()
    | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1

  let add t key image =
    Mutex.lock t.mu;
    let survivor =
      match Hashtbl.find t.table key with
      | s ->
        s.last_use <- tick t;
        s.image
      | exception Not_found ->
        if Hashtbl.length t.table >= t.capacity then evict_lru t;
        Hashtbl.replace t.table key { image; last_use = tick t };
        image
    in
    Mutex.unlock t.mu;
    survivor

  let obtain t (spec : Job.t) =
    let key = Job.image_key spec in
    Mutex.lock t.mu;
    match Hashtbl.find t.table key with
    | s ->
      s.last_use <- tick t;
      Mutex.unlock t.mu;
      (s.image, true)
    | exception Not_found ->
      Mutex.unlock t.mu;
      (add t key (Ptaint_sim.Sim.prepare ~config:spec.Job.config (Job.program spec)), false)

  let counters t =
    Mutex.lock t.mu;
    let c =
      [ ("evictions", t.evictions); ("entries", Hashtbl.length t.table);
        ("capacity", t.capacity) ]
    in
    Mutex.unlock t.mu;
    c
end

(* Run one job with the full containment machinery and report
   whether its image came from the cache.  The image lookup runs
   inside the attempt, so a toolchain or loader failure is classified
   like any other.  The deadline is derived after the lookup, so
   compiling never eats the guest's budget.  A job's own [timeout]
   overrides the campaign-wide default, for both the deadline and the
   reported [Timeout { seconds }].  [keep] picks the boot: a kept
   result outlives the next job on its domain, so it needs a fresh
   machine ({!Ptaint_sim.Sim.run_template}); otherwise the job boots
   the domain's recycled arena ({!Ptaint_sim.Sim.run_template_arena}).
   An injected job boots a fresh machine from the image
   ({!Ptaint_sim.Sim.boot_template}) and runs its plan through
   {!Ptaint_fi.Fi.run_plan}. *)
let run_job ?job_timeout ?(retries = 0) ?(backoff = 0.05) ~keep images (spec : Job.t) =
  let job_timeout = match spec.Job.timeout with Some t -> Some t | None -> job_timeout in
  let started = Unix.gettimeofday () in
  let hit = ref false in
  let close ~attempts status violation =
    ( { name = spec.Job.tag;
        policy_label = job_label spec;
        status;
        violation;
        attempts;
        timing =
          { started;
            finished = Unix.gettimeofday ();
            domain = (Domain.self () :> int) };
        trace = spec.Job.trace },
      !hit )
  in
  let attempt () =
    let image, cached = Images.obtain images spec in
    hit := cached;
    (* The deadline is absolute wall-clock, re-derived per attempt so a
       retried job gets its full budget back. *)
    let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) job_timeout in
    let config = spec.Job.config in
    match spec.Job.injections with
    | [] ->
      if keep then Ptaint_sim.Sim.run_template ?deadline ~config image
      else Ptaint_sim.Sim.run_template_arena ?deadline ~config image
    | plan ->
      (Ptaint_fi.Fi.run_plan ?deadline ~plan (Ptaint_sim.Sim.boot_template ~config image))
        .Ptaint_fi.Fi.result
  in
  let rec go attempts =
    match attempt () with
    | result ->
      (* A broken expectation function must not bring the job (let
         alone the pool) down: its exception is the violation. *)
      let violation =
        match spec.Job.expect with
        | None -> None
        | Some f -> (
          try f result with e -> Some ("expect raised: " ^ Printexc.to_string e))
      in
      close ~attempts (Finished result) violation
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      let kind = classify ~job_timeout e in
      (* Only genuine crashes are plausibly transient; timeouts, guest
         faults and loader errors are deterministic properties of the
         job and retrying them just burns the budget. *)
      (match kind with
       | Crashed when attempts <= retries ->
         if backoff > 0. then Unix.sleepf (backoff *. float_of_int (1 lsl (attempts - 1)));
         go (attempts + 1)
       | _ ->
         close ~attempts
           (Failed
              { kind;
                exn = Printexc.to_string e;
                backtrace = Printexc.raw_backtrace_to_string bt })
           None)
  in
  go 1

(* The deterministic counter deltas one job contributes to its policy
   label's registry, in registration order.  This is the unit the
   daemon streams per finished job: a client merging these deltas in
   submission order rebuilds byte-identical per-label registries,
   because a {!tally} is defined as exactly that merge. *)
let kind_counter = function
  | Timeout _ -> "timeouts"
  | Guest_fault _ -> "guest faults"
  | Loader_error _ -> "loader errors"
  | Crashed -> "crashed"

(* The counter deltas a failed job contributes, independent of any
   job_result — what a supervisor synthesizing a typed failure for a
   job it had to kill (dead worker, blown deadline, exhausted
   redeliveries) must emit to keep parity with the cooperative path. *)
let failure_counters kind = [ ("jobs", 1); (kind_counter kind, 1) ]

let job_counters r =
  [ ("jobs", 1) ]
  @ (if r.attempts > 1 then [ ("retries", r.attempts - 1) ] else [])
  @
  match r.status with
  | Failed f -> [ (kind_counter f.kind, 1) ]
  | Finished res ->
    let ms = Ptaint_mem.Memory.stats res.Ptaint_sim.Sim.machine.Ptaint_cpu.Machine.mem in
    [ ("instructions", res.Ptaint_sim.Sim.instructions);
      ("syscalls", res.Ptaint_sim.Sim.syscalls);
      ("tainted loads", ms.Ptaint_mem.Memory.tainted_loads);
      ("tainted stores", ms.Ptaint_mem.Memory.tainted_stores) ]
    @ (match res.Ptaint_sim.Sim.outcome with
       | Ptaint_sim.Sim.Alert _ -> [ ("alerts", 1) ]
       | _ -> [])

let outcome_name r =
  match r.status with
  | Failed f -> kind_name f.kind
  | Finished res -> (
    match res.Ptaint_sim.Sim.outcome with
    | Ptaint_sim.Sim.Exited _ -> "exited"
    | Ptaint_sim.Sim.Alert _ -> "alert"
    | Ptaint_sim.Sim.Fault _ -> "fault"
    | Ptaint_sim.Sim.Trap _ -> "trap"
    | Ptaint_sim.Sim.Out_of_fuel -> "out-of-fuel")

(* --- streaming campaigns ---

   A collected batch keeps one [job_result] per job — the right shape
   for a few hundred jobs, the wrong one for a generative campaign,
   where at 10^6 jobs the result list (and the machines and kernels it
   pins) dwarfs the working set.  A stream keeps O(window) state
   instead: each job is reduced on its worker to a compact
   {!job_summary} and folded — in submission order, whatever the
   scheduling — into an incremental {!tally} whose counters are
   byte-identical to a collected batch's {!stats}. *)

type detail = Outcome of Ptaint_sim.Sim.outcome | Text of string

type job_summary = {
  s_index : int;
  s_name : string;
  s_label : string;
  s_outcome : string;
  s_counters : (string * int) list;
  s_failed : bool;
  s_violation : bool;
  s_detected : bool;
  s_alert_pc : int option;
  s_instructions : int;
  s_syscalls : int;
  s_attempts : int;
  s_trace : (int * int) option;
  s_detail : detail;
  s_exit_code : int;
  s_timing : timing;
}

(* Runs on the worker, before its arena is rebooted: everything the
   aggregation and the JSONL sink need is extracted here, so the
   [job_result] (whose machine may alias the domain arena) is never
   retained past the job that produced it. *)
let summarize idx (r : job_result) =
  let failed, detail, exit_code, instructions, syscalls =
    match r.status with
    | Failed f -> (true, Text f.exn, 4, 0, 0)
    | Finished res ->
      let outcome = res.Ptaint_sim.Sim.outcome in
      ( false, Outcome outcome, Ptaint_sim.Sim.exit_code outcome,
        res.Ptaint_sim.Sim.instructions, res.Ptaint_sim.Sim.syscalls )
  in
  let alert_pc =
    match detail with
    | Outcome (Ptaint_sim.Sim.Alert a) -> Some a.Ptaint_cpu.Machine.alert_pc
    | _ -> None
  in
  { s_index = idx;
    s_name = r.name;
    s_label = r.policy_label;
    s_outcome = outcome_name r;
    s_counters = job_counters r;
    s_failed = failed;
    s_violation = r.violation <> None;
    s_detected = alert_pc <> None;
    s_alert_pc = alert_pc;
    s_instructions = instructions;
    s_syscalls = syscalls;
    s_attempts = r.attempts;
    s_trace = r.trace;
    s_detail = detail;
    s_exit_code = exit_code;
    s_timing = r.timing }

let jsonl_of_summary s =
  Printf.sprintf
    "{\"i\":%d,\"tag\":\"%s\",\"policy\":\"%s\",\"outcome\":\"%s\",\"attempts\":%d,\"instructions\":%d,\"syscalls\":%d%s}"
    s.s_index (Ptaint_obs.Json.escape s.s_name) (Ptaint_obs.Json.escape s.s_label)
    (Ptaint_obs.Json.escape s.s_outcome)
    s.s_attempts s.s_instructions s.s_syscalls
    ((match s.s_alert_pc with
      | Some pc -> Printf.sprintf ",\"alert_pc\":%d" pc
      | None -> "")
     ^
     (* traceless campaigns (the generative path) keep their historic
        byte-exact JSONL shape; the field appears only when a client
        seeded an id *)
     match s.s_trace with
     | Some (tid, span) -> Printf.sprintf ",\"trace\":\"%016x\",\"span\":%d" tid span
     | None -> "")

(* The incremental aggregate behind every {!stats}, plus the
   coverage-style fitness inputs (distinct detection sites).  Summaries
   fold in submission order, so the per-label registries keep one
   label order and one registration order within each registry
   whichever path built them: a streamed campaign's counters-only
   [metrics_table] is byte-identical to a collected one's.  The
   registries are the only store of counts — jobs, instructions,
   syscalls and detections are their [jobs]/[instructions]/
   [syscalls]/[alerts] counters — beside the three numbers no counter
   holds: failed jobs, violations and the detection sites.  The only
   non-counter row is the per-job wall clock, which renders only under
   [~timings] and never enters a checkpoint dump. *)
type tally = {
  mutable t_failed : int;
  mutable t_violations : int;
  mutable t_metrics : (string * Ptaint_obs.Metrics.t) list;  (* reverse first-seen *)
  mutable t_sites : int list;  (* distinct alert pcs, ascending *)
}

let tally () = { t_failed = 0; t_violations = 0; t_metrics = []; t_sites = [] }

(* A counter's value, 0 when the registry never registered it: read
   through [rows], so asking registers no zero row that
   [metrics_table] would then render. *)
let counter_value m name =
  let module M = Ptaint_obs.Metrics in
  List.fold_left
    (fun n (r : M.row) -> if r.M.kind = "counter" && r.M.name = name then n + r.M.count else n)
    0 (M.rows m)

let tally_total t name = List.fold_left (fun n (_, m) -> n + counter_value m name) 0 t.t_metrics
let tally_sites t = t.t_sites

let rec insert_site pc = function
  | [] -> [ pc ]
  | x :: _ as l when pc < x -> pc :: l
  | x :: _ as l when pc = x -> l
  | x :: tl -> x :: insert_site pc tl

let tally_add t (s : job_summary) =
  let module M = Ptaint_obs.Metrics in
  if s.s_failed then t.t_failed <- t.t_failed + 1;
  if s.s_violation then t.t_violations <- t.t_violations + 1;
  let m =
    match List.assoc_opt s.s_label t.t_metrics with
    | Some m -> m
    | None ->
      let m = M.create () in
      t.t_metrics <- (s.s_label, m) :: t.t_metrics;
      m
  in
  List.iter (fun (name, by) -> M.inc ~by (M.counter m name)) s.s_counters;
  (* wall clock is not a counter: it renders only under [~timings] and
     never enters a checkpoint dump *)
  M.observe (M.histogram m "job wall ms")
    ((s.s_timing.finished -. s.s_timing.started) *. 1000.);
  match s.s_alert_pc with
  | Some pc -> t.t_sites <- insert_site pc t.t_sites
  | None -> ()

let tally_stats ?(wall_seconds = 0.) t =
  let ordered = List.rev t.t_metrics in
  { jobs = tally_total t "jobs";
    failed = t.t_failed;
    violations = t.t_violations;
    wall_seconds;
    instructions = tally_total t "instructions";
    syscalls = tally_total t "syscalls";
    detections = List.map (fun (l, m) -> (l, counter_value m "alerts")) ordered;
    metrics = ordered }

(* Byte-exact persistence image of a tally: every field is an int or a
   string, so a dump written to disk and loaded back yields a tally
   whose [metrics_table]/[pp_stats] renderings are byte-identical —
   the checkpoint/resume contract. *)
type tally_dump = {
  d_failed : int;
  d_violations : int;
  d_counters : (string * (string * int) list) list;
      (* label -> counter rows, both in registration order *)
  d_sites : int list;
}

let dump_tally t =
  let module M = Ptaint_obs.Metrics in
  let ordered = List.rev t.t_metrics in
  { d_failed = t.t_failed;
    d_violations = t.t_violations;
    d_counters =
      List.map
        (fun (l, m) ->
          ( l,
            List.filter_map
              (fun (r : M.row) ->
                if r.M.kind = "counter" then Some (r.M.name, r.M.count) else None)
              (M.rows m) ))
        ordered;
    d_sites = t.t_sites }

let load_tally d =
  let module M = Ptaint_obs.Metrics in
  let t = tally () in
  t.t_failed <- d.d_failed;
  t.t_violations <- d.d_violations;
  List.iter
    (fun (l, rows) ->
      let m = M.create () in
      List.iter (fun (name, v) -> M.inc ~by:v (M.counter m name)) rows;
      t.t_metrics <- (l, m) :: t.t_metrics)
    d.d_counters;
  t.t_sites <- d.d_sites;
  t

(* --- the engine ---

   Every batch runs here.  Jobs are pulled lazily from a sequence and
   posted to a persistent worker pool; at most [window] (4x the worker
   count) are admitted beyond the flush cursor, which bounds both the
   queue and the reorder buffer.  Each worker runs its job through
   [run_job] against the engine's image cache and reduces the result
   with [reduce] before it touches its next job; [emit] then sees
   every reduced value on the calling domain, in submission order.
   [keep] is [run_job]'s: collected results boot fresh, reduced-and-
   dropped ones boot the arena. *)
let engine_cache_capacity = 128

let engine ?domains ~job_timeout ~retries ~backoff ~start ~keep ~reduce ~emit jobs =
  let svc = Pool.service ?domains () in
  let window = 4 * Pool.service_size svc in
  let images = Images.create ~capacity:engine_cache_capacity in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let completions = Queue.create () in
  (* out-of-order completions parked until the cursor reaches them *)
  let pending = Hashtbl.create (2 * window) in
  let run_one idx (spec : Job.t) () =
    let v =
      match reduce idx (fst (run_job ?job_timeout ~retries ~backoff ~keep images spec)) with
      | v -> v
      | exception e ->
        (* [run_job] contains everything, so this is belt and braces: the
           pump must never lose a completion, or the reorder flush
           stalls forever at this index. *)
        let now = Unix.gettimeofday () in
        reduce idx
          { name = spec.Job.tag;
            policy_label = job_label spec;
            status = Failed { kind = Crashed; exn = Printexc.to_string e; backtrace = "" };
            violation = None;
            attempts = 1;
            timing = { started = now; finished = now; domain = (Domain.self () :> int) };
            trace = spec.Job.trace }
    in
    Mutex.lock mu;
    Queue.push (idx, v) completions;
    Condition.signal cv;
    Mutex.unlock mu
  in
  let next = ref jobs in
  let submitted = ref start and cursor = ref start and exhausted = ref false in
  let pump_submit () =
    while (not !exhausted) && !submitted - !cursor < window do
      match !next () with
      | Seq.Nil -> exhausted := true
      | Seq.Cons (spec, rest) ->
        next := rest;
        Pool.post svc (run_one !submitted spec);
        incr submitted
    done
  in
  pump_submit ();
  while !cursor < !submitted do
    Mutex.lock mu;
    while Queue.is_empty completions do
      Condition.wait cv mu
    done;
    Queue.iter (fun (i, v) -> Hashtbl.replace pending i v) completions;
    Queue.clear completions;
    Mutex.unlock mu;
    while Hashtbl.mem pending !cursor do
      emit (Hashtbl.find pending !cursor);
      Hashtbl.remove pending !cursor;
      incr cursor
    done;
    pump_submit ()
  done;
  Pool.stop svc;
  !cursor

let run_stream ?domains ?(start = 0) ?(tally = tally ()) ?(on_result = ignore) jobs =
  let cursor =
    engine ?domains ~job_timeout:None ~retries:0 ~backoff:0. ~start ~keep:false
      ~reduce:summarize
      ~emit:(fun s ->
        tally_add tally s;
        on_result s)
      jobs
  in
  (tally, cursor)

(* A collect over the engine: fresh boots, every result kept, then the
   job spans emitted from the calling domain — the trace is
   single-domain mutable state.  The stats fold the results through a
   {!tally}, like a stream's, plus one row only a collect can have: how
   many jobs were in flight when each one started, the pool's
   effective concurrency. *)
let run_jobs ?domains ?trace ?job_timeout ?(retries = 0) ?(backoff = 0.05) specs =
  let t0 = Unix.gettimeofday () in
  let results = ref [] in
  ignore
    (engine ?domains ~job_timeout ~retries ~backoff ~start:0 ~keep:true
       ~reduce:(fun _ r -> r)
       ~emit:(fun r -> results := r :: !results)
       (List.to_seq specs));
  let results = List.rev !results in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  (match trace with
   | Some tr ->
     List.iter
       (fun r ->
         Ptaint_obs.Trace.emit tr
           (Ptaint_obs.Event.Job
              { name = r.name;
                label = r.policy_label;
                t0_us = (r.timing.started -. t0) *. 1e6;
                dur_us = (r.timing.finished -. r.timing.started) *. 1e6;
                domain = r.timing.domain;
                outcome = outcome_name r;
                trace = r.trace }))
       results
   | None -> ());
  let concurrency_at t =
    List.fold_left
      (fun n r -> if r.timing.started <= t && t < r.timing.finished then n + 1 else n)
      0 results
  in
  let tally = tally () in
  List.iteri
    (fun i r ->
      tally_add tally (summarize i r);
      Ptaint_obs.Metrics.observe
        (Ptaint_obs.Metrics.histogram (List.assoc r.policy_label tally.t_metrics)
           "concurrent jobs")
        (float_of_int (concurrency_at r.timing.started)))
    results;
  (results, tally_stats ~wall_seconds tally)

let metrics_table_of ?(timings = false) metrics =
  let module M = Ptaint_obs.Metrics in
  let fmt_f v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.2f" v
  in
  let rows =
    List.concat_map
      (fun (label, m) ->
        List.filter_map
          (fun (r : M.row) ->
            match r.M.kind with
            | "counter" -> Some [ label; r.M.name; string_of_int r.M.count ]
            | _ when timings ->
              Some
                [ label;
                  r.M.name;
                  Printf.sprintf "n=%d mean=%s min=%s max=%s" r.M.count (fmt_f r.M.mean)
                    (fmt_f r.M.min) (fmt_f r.M.max) ]
            | _ -> None)
          (M.rows m))
      metrics
  in
  Ptaint_report.Report.table ~headers:[ "policy"; "metric"; "value" ] rows

let metrics_table ?timings stats = metrics_table_of ?timings stats.metrics

let pp_stats ppf s =
  Format.fprintf ppf "campaign: %d jobs (%d failed, %d violations), %d guest instructions, %d syscalls; detections: %s [%.2fs wall]"
    s.jobs s.failed s.violations s.instructions s.syscalls
    (if s.detections = [] then "-"
     else
       String.concat ", "
         (List.map (fun (l, n) -> Printf.sprintf "%s=%d" l n) s.detections))
    s.wall_seconds
