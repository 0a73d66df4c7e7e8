(* End-to-end benchmark: four workloads from the Table 3 guests to the
   supervised daemon, and a traced run that splits each one by layer.

     e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
             [--ptaintd PATH] [--out DIR]
     e2e.exe --smoke [--ptaintd PATH]

   One invocation runs one workload in this process (the daemon
   workloads add one ptaintd process and its workers).  It builds every
   input from the seed before timing starts, measures for [--seconds],
   checks every result, prints one line per metric and, last, one JSON
   object with the verdict and the metrics.  [--trace 1] prints the
   per-layer metrics instead and writes a Chrome trace into [--out].
   [--smoke] runs every workload, plain and traced, at a tiny size.
   bench/e2e/README.md lists the workloads and metrics. *)

module Sim = Ptaint_sim.Sim
module Job = Ptaint_campaign.Job
module Campaign = Ptaint_campaign.Campaign
module Client = Ptaint_daemon.Client
module Proto = Ptaint_daemon.Proto
module Workload = Ptaint_workloads.Workload

let now = Clock.now

type kind = Spec | Warm | Daemon of Proc.backend

let workloads =
  [ ("spec-full", Spec);
    ("campaign-warm", Warm);
    ("daemon-inproc", Daemon Proc.In_process);
    ("daemon-isolate", Daemon Proc.Isolated) ]

(* How much work one run does. *)
type size = {
  seconds : float;  (** length of the timed phase, set-ups included *)
  segments : int;  (** set-ups per run, each followed by its share of the timed work *)
  pool_jobs : int;  (** distinct jobs the generated workloads cycle through *)
  variants : int;  (** distinct programs in the pool *)
  window : int;  (** jobs per window of a job stream *)
  workers : int;  (** campaign domains; ptaintd -j or --workers *)
  inflight : int;  (** jobs outstanding on the daemon connection *)
  trace_scale : float;  (** traced-run job counts, in seconds' worth *)
}

let run_size seconds =
  { seconds; segments = 10; pool_jobs = 3000; variants = 12; window = 500; workers = 1; inflight = 8;
    trace_scale = seconds }

let smoke_size =
  { seconds = 0.5; segments = 1; pool_jobs = 150; variants = 4; window = 30; workers = 2; inflight = 8;
    trace_scale = 0.1 }

(* --- correctness accounting --- *)

type checks = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let checks () = { attempted = 0; failed = 0; errors = [] }

let fail c msg =
  c.failed <- c.failed + 1;
  if List.length c.errors < 5 then c.errors <- msg :: c.errors

let check c = function None -> () | Some msg -> fail c msg

let attempt c verdict =
  c.attempted <- c.attempted + 1;
  check c verdict

(* --- inputs and what their results must be --- *)

(* A workload's inputs and how each result is judged.  A generated pool
   has a reference result per job, computed locally before any timing;
   the Table 3 guests are held to the committed table. *)
type source = { pool : Jobs.pool; refs : Jobs.reference array option }

let source c kind ~seed ~variants ~jobs =
  match kind with
  | Spec -> { pool = Jobs.guest_pool "full"; refs = None }
  | Warm | Daemon _ ->
    let p = Jobs.warm_pool ~seed ~variants ~jobs in
    let refs = Jobs.references p in
    let a = Jobs.agreement () in
    Array.iteri
      (fun i (r : Jobs.reference) ->
        let tag = p.Jobs.jobs.(i).Job.tag in
        check c (Jobs.gen_violation ~tag ~short:r.Jobs.r_short);
        check c (Jobs.agree a ~tag ~short:r.Jobs.r_short ~instructions:r.Jobs.r_instructions))
      refs;
    { pool = p; refs = Some refs }

(* Results without a reference are Table 3 guests. *)
let check_local src i (got : Jobs.reference) =
  match src.refs with
  | Some r -> Jobs.check_result r.(i) got
  | None ->
    Jobs.check_guest src.pool.Jobs.jobs.(i).Job.tag
      ~exited:(got.Jobs.r_render = "exited with status 0")
      ~instructions:got.Jobs.r_instructions ~stdout:(Some got.Jobs.r_stdout)

let check_summary src i (s : Campaign.job_summary) =
  match src.refs with
  | Some r -> Jobs.check_summary r.(i) s
  | None when s.Campaign.s_failed -> Some (s.Campaign.s_name ^ ": " ^ s.Campaign.s_outcome)
  | None ->
    Jobs.check_guest s.Campaign.s_name ~exited:(s.Campaign.s_outcome = "exited")
      ~instructions:s.Campaign.s_instructions ~stdout:None

let check_event src i ev =
  match (src.refs, ev) with
  | Some r, _ -> Jobs.check_event r.(i) ev
  | None, Proto.Finished f ->
    Jobs.check_guest f.tag
      ~exited:(f.exit_code = 0 && String.starts_with ~prefix:"exited" f.outcome)
      ~instructions:f.instructions ~stdout:(Some f.stdout)
  | None, Proto.Job_failed f -> Some (Printf.sprintf "%s: job failed: %s" f.tag f.kind)
  | None, Proto.Started _ -> Some "not a terminal event"

(* --- metrics --- *)

type metric = { name : string; unit_ : string; value : float; samples : float list }

let single name unit_ value = { name; unit_; value; samples = [ value ] }

(* --- segments and windows --- *)

(* A run is [segments] segments.  Each starts with one set-up of the
   workload (its time is a [setup_s] sample) and then runs the work on
   what the set-up built, until the segment's share of the timed phase
   is over.  Spreading the set-ups over the run lets their median see
   the same host as the work does.

   The work is cut into windows: one guest run (spec-full) or [every]
   completed jobs of a stream, tens of milliseconds each.  A segment's
   first [warmup] windows (image compiles, superblock translation) are
   not kept.  On a shared host the other tenants set the pace: in
   spells of a fraction of a second to minutes the simulator runs up to
   1.7 times slower, while a plain OCaml loop beside it barely slows.
   No calibration can take the spells out, and a median over a run
   measures how much of the run was disturbed.  Interference only ever
   makes a window slower, so throughput and latency come from the run's
   best windows: the fastest kept window of each kind, a kind being one
   guest or the whole job stream.  They tell what the program does when
   the host lets it run. *)
type window = { w_s : float; w_jobs : int; w_insns : int; w_lat : float list }

type windows = {
  every : int;
  warmup : int;
  mutable t_start : float;
  mutable jobs : int;
  mutable insns : int;
  mutable lat : float list;  (** seconds, jobs of the open window *)
  mutable closed : int;  (** windows closed in this segment, warm-up included *)
  best : (int, window) Hashtbl.t;  (** fastest kept window of each kind *)
  mutable rates : float list;  (** jobs per second of every kept window *)
  mutable mips : float list;
  mutable setups : float list;
  mutable peaks : float list;  (** peak RSS of each segment, MB *)
}

let windows ?(warmup = 1) every =
  { every; warmup; t_start = now (); jobs = 0; insns = 0; lat = []; closed = 0;
    best = Hashtbl.create 8; rates = []; mips = []; setups = []; peaks = [] }

(* Each segment gets an equal share of what is left of the timed phase;
   [segment deadline] runs one. *)
let segmented size segment =
  let t_end = now () +. size.seconds in
  for s = 0 to size.segments - 1 do
    let left = float_of_int (size.segments - s) in
    segment (now () +. ((t_end -. now ()) /. left))
  done

let start_segment w =
  w.t_start <- now ();
  w.jobs <- 0;
  w.insns <- 0;
  w.lat <- [];
  w.closed <- 0

let setup_done w dt = w.setups <- dt :: w.setups

(* A segment run in this process starts from a collected heap and a
   fresh peak, so the garbage of earlier segments, an artefact of
   segmenting, does not count in its peak RSS. *)
let fresh_peak () =
  Gc.full_major ();
  Proc.reset_self_peak_rss ()

let segment_peak w mb = w.peaks <- mb :: w.peaks

(* A segment runs to its deadline, and on until it has kept a window,
   so a slow host still yields a sample. *)
let running w deadline = now () < deadline || w.closed <= w.warmup

let rate x = float_of_int x.w_jobs /. x.w_s

let close w ~kind x =
  if w.closed >= w.warmup then begin
    w.rates <- rate x :: w.rates;
    w.mips <- (float_of_int x.w_insns /. x.w_s /. 1e6) :: w.mips;
    match Hashtbl.find_opt w.best kind with
    | Some b when rate b >= rate x -> ()
    | _ -> Hashtbl.replace w.best kind x
  end;
  w.closed <- w.closed + 1

(* A window of one job, timed by the caller. *)
let job_window w ~kind ~instructions ~seconds =
  close w ~kind { w_s = seconds; w_jobs = 1; w_insns = instructions; w_lat = [ seconds ] }

(* A job of a stream; every [every] jobs close a window timed from the
   previous close. *)
let completed w ~instructions ~latency =
  w.jobs <- w.jobs + 1;
  w.insns <- w.insns + instructions;
  w.lat <- latency :: w.lat;
  if w.jobs = w.every then begin
    let t = now () in
    close w ~kind:0 { w_s = t -. w.t_start; w_jobs = w.jobs; w_insns = w.insns; w_lat = w.lat };
    w.t_start <- t;
    w.jobs <- 0;
    w.insns <- 0;
    w.lat <- []
  end

(* The end-to-end metrics: throughput and latency over the best
   windows, with every kept window's rate as the sample distribution;
   the median set-up and segment peak RSS. *)
let end_to_end w =
  let best = Hashtbl.fold (fun _ x acc -> x :: acc) w.best [] in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0. best in
  let secs = sum (fun x -> x.w_s) in
  let lat = List.concat_map (fun x -> List.map (fun s -> s *. 1e3) x.w_lat) best in
  let latency name q = { name; unit_ = "ms"; value = Stat.quantile lat q; samples = lat } in
  [ { name = "guest_mips"; unit_ = "MIPS"; value = sum (fun x -> float_of_int x.w_insns) /. secs /. 1e6;
      samples = w.mips };
    { name = "jobs_per_s"; unit_ = "1/s"; value = sum (fun x -> float_of_int x.w_jobs) /. secs;
      samples = w.rates };
    latency "latency_p50_ms" 0.5;
    latency "latency_p90_ms" 0.9;
    { name = "setup_s"; unit_ = "s"; value = (Stat.summarize w.setups).Stat.median; samples = w.setups };
    { name = "peak_rss_mb"; unit_ = "MB"; value = (Stat.summarize w.peaks).Stat.median; samples = w.peaks } ]

(* --- spec-full: the six Table 3 guests on this domain --- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Rounds of the six guests, each round in seeded order; a job is one
   guest run.  A segment's first round is its warm-up. *)
let spec_run size ~seed kind c =
  let src = source c kind ~seed ~variants:size.variants ~jobs:0 in
  let rng = Random.State.make [| seed |] in
  let w = windows ~warmup:(List.length Workload.all) 1 in
  let segment deadline =
    fresh_peak ();
    start_segment w;
    (* set-up: compile the six guests uncached, then load and snapshot *)
    let t0 = now () in
    let guests =
      Array.of_list
        (List.mapi
           (fun i (wl : Workload.t) ->
             let j = src.pool.Jobs.jobs.(i) in
             let p = Ptaint_runtime.Runtime.compile wl.Workload.source in
             (i, j, Sim.prepare ~config:j.Job.config p))
           Workload.all)
    in
    setup_done w (now () -. t0);
    while running w deadline do
      shuffle rng guests;
      let syscalls = ref 0 in
      Array.iter
        (fun (i, j, image) ->
          let t0 = now () in
          let r = Sim.run_template_arena ~config:j.Job.config image in
          let seconds = now () -. t0 in
          let got = Jobs.reference_of r in
          syscalls := !syscalls + got.Jobs.r_syscalls;
          attempt c (check_local src i got);
          job_window w ~kind:i ~instructions:got.Jobs.r_instructions ~seconds)
        guests;
      if !syscalls <> Jobs.table3_syscalls then
        fail c (Printf.sprintf "a round made %d syscalls, Table 3 has %d" !syscalls Jobs.table3_syscalls)
    done;
    segment_peak w (Proc.self_peak_rss_mb ())
  in
  segmented size segment;
  end_to_end w

(* --- campaign-warm: one streaming campaign per segment --- *)

(* Jobs are pulled from the pool as run_stream asks for them; the pull
   time starts each job's latency.  At most 4 x domains jobs are ever
   outstanding, so a small ring holds the pull times. *)
let ring = 64

(* A segment is one run_stream; its set-up is the time from calling it
   to the first folded job, which spawns the domains and compiles. *)
let campaign_run size ~seed kind c =
  let src = source c kind ~seed ~variants:size.variants ~jobs:size.pool_jobs in
  let n = Jobs.size src.pool in
  let w = windows size.window in
  let pulled = Array.make ring 0. in
  let segment deadline =
    fresh_peak ();
    start_segment w;
    let t0 = now () and first = ref true in
    let rec from k () =
      if not (running w deadline) then Seq.Nil
      else begin
        pulled.(k land (ring - 1)) <- now ();
        Seq.Cons (Jobs.job src.pool k, from (k + 1))
      end
    in
    let on_result (s : Campaign.job_summary) =
      let t = now () in
      if !first then begin
        first := false;
        setup_done w (t -. t0)
      end;
      let k = s.Campaign.s_index in
      attempt c (check_summary src (k mod n) s);
      completed w ~instructions:s.Campaign.s_instructions ~latency:(t -. pulled.(k land (ring - 1)))
    in
    ignore (Campaign.run_stream ~domains:size.workers ~on_result (from 0));
    segment_peak w (Proc.self_peak_rss_mb ())
  in
  segmented size segment;
  end_to_end w

(* --- daemon-*: one client connection, closed loop --- *)

type client_time = {
  mutable submit_s : float;  (** inside Client.submit: encode, send, await Accepted *)
  mutable wait_s : float;  (** blocked in Client.next_event *)
  mutable spans : (string * float * float * int) list;  (** kept when tracing *)
  tracing : bool;
}

let client_time tracing = { submit_s = 0.; wait_s = 0.; spans = []; tracing }

let client_span ct name t0 t1 k =
  if ct.tracing && k < 20_000 then ct.spans <- (name, t0, t1, k) :: ct.spans

(* Keep [inflight] jobs outstanding on one connection: every terminal
   event frees a slot for the next spec while [more k] holds.
   [on_done k latency ev] sees every job, refused ones as [Error]. *)
let closed_loop (cl : Client.t) ct ~inflight ~spec ~more ~on_done =
  let outstanding = Hashtbl.create 64 in
  let k = ref 0 in
  let fill () =
    while Hashtbl.length outstanding < inflight && more !k do
      let t0 = now () in
      let r = Client.submit cl (spec !k) in
      let t1 = now () in
      ct.submit_s <- ct.submit_s +. (t1 -. t0);
      client_span ct "client.submit" t0 t1 !k;
      (match r with
       | Ok id -> Hashtbl.replace outstanding id (!k, t0)
       | Error reason -> on_done !k 0. (Error reason));
      incr k
    done
  in
  fill ();
  while Hashtbl.length outstanding > 0 do
    let t0 = now () in
    let ev = Client.next_event cl in
    let t1 = now () in
    ct.wait_s <- ct.wait_s +. (t1 -. t0);
    match ev with
    | Proto.Started _ -> ()
    | Proto.Finished { id; _ } | Proto.Job_failed { id; _ } ->
      (match Hashtbl.find_opt outstanding id with
       | Some (k, ts) ->
         Hashtbl.remove outstanding id;
         client_span ct "client.job" ts t1 k;
         on_done k (t1 -. ts) (Ok ev)
       | None -> ());
      fill ()
  done

let instructions_of = function Ok (Proto.Finished f) -> f.instructions | _ -> 0

let verdict src i = function
  | Ok ev -> check_event src i ev
  | Error reason -> Some ("refused: " ^ reason)

(* The gate on the daemon's own counters between two scrapes. *)
let daemon_counters = [ ("ptaintd_jobs_rejected_total", "rejected");
                        ("ptaintd_worker_restarts_total", "worker restarts");
                        ("ptaintd_redeliveries_total", "redeliveries") ]

let check_daemon_counters c before after =
  List.iter
    (fun (series, what) ->
      let d = Proc.scrape_value after series -. Proc.scrape_value before series in
      if d <> 0. then fail c (Printf.sprintf "daemon reported %.0f %s" d what))
    daemon_counters

(* A segment is one daemon: its set-up is spawning ptaintd, connecting
   and running the first job; the daemon is stopped when the segment
   ends.  A segment's peak RSS is its daemon's. *)
let daemon_run size ~seed ~ptaintd ~sock kind backend c =
  let src = source c kind ~seed ~variants:size.variants ~jobs:size.pool_jobs in
  let n = Jobs.size src.pool in
  let specs = Array.init n (Jobs.wire_spec src.pool) in
  let w = windows size.window in
  let segment deadline =
    start_segment w;
    let t0 = now () in
    Proc.with_daemon ~ptaintd ~sock ~workers:size.workers backend (fun d ->
        let cl = d.Proc.client in
        (match Client.run_batch cl [ specs.(0) ] with
         | [ Client.Done ev ] ->
           setup_done w (now () -. t0);
           attempt c (check_event src 0 ev)
         | _ -> failwith "daemon refused the set-up job");
        let before = Client.stats_full cl in
        let on_done k latency r =
          attempt c (verdict src (k mod n) r);
          completed w ~instructions:(instructions_of r) ~latency
        in
        closed_loop cl (client_time false) ~inflight:size.inflight
          ~spec:(fun k -> specs.(k mod n)) ~more:(fun _ -> running w deadline) ~on_done;
        check_daemon_counters c before (Client.stats_full cl);
        segment_peak w (Proc.daemon_peak_rss_mb d.Proc.pid))
  in
  segmented size segment;
  end_to_end w

(* --- the traced run --- *)

(* Fixed job counts per phase, so the per-layer counts repeat exactly
   for a seed: (local jobs, daemon jobs). *)
let trace_counts size kind =
  let scaled per_second floor = max floor (int_of_float (per_second *. size.trace_scale)) in
  match kind with
  | Spec -> (6 * scaled 0.4 1, 6 * scaled 0.2 1)
  | Warm | Daemon _ -> (scaled 2000. 150, scaled 800. 100)

(* Job [k] of a phase: the guests in seeded round order, otherwise the
   pool in order (cycling). *)
let order kind ~seed ~n pool_size =
  match kind with
  | Spec ->
    let rng = Random.State.make [| seed |] in
    let a = Array.make n 0 in
    let round = Array.init pool_size Fun.id in
    for r = 0 to (n / pool_size) - 1 do
      shuffle rng round;
      Array.blit round 0 a (r * pool_size) pool_size
    done;
    a
  | _ -> Array.init n (fun k -> k mod pool_size)

let events_body text =
  match (String.index_opt text '[', String.rindex_opt text ']') with
  | Some a, Some b when b > a -> String.trim (String.sub text (a + 1) (b - a - 1))
  | _ -> ""

(* One Chrome document: the benchmark's spans (pid 1) and the daemon's
   job spans (pid 2), on one epoch-microsecond timeline. *)
let merge_chrome bench daemon_file =
  let daemon = try events_body (Proc.read_file daemon_file) with Sys_error _ -> "" in
  let body = List.filter (( <> ) "") [ events_body (Ptaint_obs.Chrome.contents bench); daemon ] in
  Printf.sprintf "{\"traceEvents\":[\n%s\n],\"displayTimeUnit\":\"ms\"}\n" (String.concat ",\n" body)

let per_job total n = if n = 0 then 0. else total /. float_of_int n
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Mean seconds per call of [f] over [items], timed as one batch. *)
let mean_call f items =
  match items with
  | [] -> 0.
  | _ ->
    let t0 = now () in
    List.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
    (now () -. t0) /. float_of_int (List.length items)

let trace_run size ~seed ~ptaintd ~sock ~out ~name kind c =
  let n_local, n_daemon = trace_counts size kind in
  let src = source c kind ~seed ~variants:size.variants ~jobs:size.pool_jobs in
  let pool_size = Jobs.size src.pool in
  let local = order kind ~seed ~n:n_local pool_size in
  (* the same jobs through an untraced one-domain campaign; run before
     and after the traced pass, so warm-up and drift cancel *)
  let untraced () =
    let t0 = now () in
    ignore
      (Campaign.run_stream ~domains:1
         ~on_result:(fun s -> attempt c (check_summary src local.(s.Campaign.s_index) s))
         (Seq.map (fun i -> src.pool.Jobs.jobs.(i)) (Array.to_seq local)));
    now () -. t0
  in
  let before_s = untraced () in
  (* each job through the layers, timed from this side *)
  let lt = Layered.create () in
  let t0 = now () in
  Array.iteri
    (fun k i ->
      Layered.run_job lt ~job:k src.pool.Jobs.jobs.(i) ~check:(fun got ->
          attempt c (check_local src i got)))
    local;
  let traced_s = now () -. t0 in
  let untraced_s = (before_s +. untraced ()) /. 2. in
  (* the same inputs through a daemon that traces itself *)
  let backend = match kind with Daemon b -> b | _ -> Proc.In_process in
  let daemon_trace = Printf.sprintf "e2e-%d-ptaintd.json" (Unix.getpid ()) in
  let ct = client_time true in
  let daemon_order = order kind ~seed ~n:n_daemon pool_size in
  (* the codec is timed on up to [keep] of the phase's own frames *)
  let keep = 2000 in
  let sent = ref [] and received = ref [] and latency_s = ref 0. in
  let spec k =
    let s = Jobs.wire_spec src.pool daemon_order.(k) in
    if k < keep then sent := s :: !sent;
    s
  in
  let on_done k latency r =
    latency_s := !latency_s +. latency;
    (match r with Ok ev when k < keep -> received := ev :: !received | _ -> ());
    attempt c (verdict src daemon_order.(k) r)
  in
  let daemon_s, before, after =
    Proc.with_daemon ~ptaintd ~sock ~workers:size.workers ~trace:daemon_trace backend (fun d ->
        let cl = d.Proc.client in
        let before = Client.stats_full cl in
        let t0 = now () in
        closed_loop cl ct ~inflight:size.inflight ~spec ~more:(fun k -> k < n_daemon) ~on_done;
        let wall = now () -. t0 in
        (wall, before, Client.stats_full cl))
  in
  check_daemon_counters c before after;
  let chrome = Ptaint_obs.Chrome.create () in
  Layered.to_chrome lt chrome;
  List.iter
    (fun (name, t0, t1, k) ->
      Ptaint_obs.Chrome.complete chrome ~name ~cat:"client" ~pid:1 ~tid:1
        ~ts_us:(Clock.epoch_us t0) ~dur_us:((t1 -. t0) *. 1e6)
        ~args:[ ("job", string_of_int k) ] ())
    ct.spans;
  let merged = merge_chrome chrome daemon_trace in
  Proc.unlink_quiet daemon_trace;
  Option.iter
    (fun dir ->
      let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" name seed) in
      Out_channel.with_open_bin path (fun oc -> output_string oc merged);
      Printf.eprintf "e2e: wrote %s\n%!" path)
    out;
  (* the wire codec on the phase's own frames *)
  let frames = List.map (fun ev -> Proto.encode_response (Proto.Job_event ev)) !received in
  let encode_s = mean_call (fun s -> Proto.encode_request (Proto.Submit s)) !sent in
  let decode_s = mean_call Proto.decode_response frames in
  let delta series = Proc.scrape_value after series -. Proc.scrape_value before series in
  let mean series =
    let n = delta (series ^ "_count") in
    if n = 0. then 0. else delta (series ^ "_sum") /. n
  in
  let job_us = mean "ptaintd_job_duration_us" in
  let hits = delta "ptaintd_cache_hits" and misses = delta "ptaintd_cache_misses" in
  (* the first scrape's own reply is in the second scrape's byte count *)
  let bytes =
    delta "ptaintd_bytes_read_total" +. delta "ptaintd_bytes_written_total"
    -. float_of_int (String.length before)
  in
  let open Layered in
  let count name n = single name "count" (float_of_int n) in
  let mean_of l scale = per_job (secs l) l.calls *. scale in
  [ single "cpu.self_s" "s" (secs lt.cpu);
    single "cpu.self_mips" "MIPS" (float_of_int lt.instructions /. secs lt.cpu /. 1e6);
    count "cpu.dispatches" lt.blocks;
    count "cpu.sb_promoted" lt.promoted;
    count "cpu.chain_hits" lt.chain_hits;
    count "cpu.chain_misses" lt.chain_misses;
    single "cpu.chain_hit_ratio" "ratio" (ratio lt.chain_hits (lt.chain_hits + lt.chain_misses));
    count "cpu.deopts" lt.deopts;
    count "cpu.interp_blocks" lt.interp_blocks;
    single "cpu.clean_block_ratio" "ratio" (ratio lt.clean_blocks lt.blocks);
    count "mem.loads" lt.loads;
    count "mem.stores" lt.stores;
    single "mem.tainted_load_ratio" "ratio" (ratio lt.tainted_loads lt.loads);
    single "os.syscall_us" "us" (mean_of lt.os 1e6);
    single "os.syscalls_per_job" "count" (ratio lt.os.calls lt.jobs);
    single "sim.prepare_ms" "ms" (mean_of lt.prepare 1e3);
    single "sim.boot_us" "us" (mean_of lt.boot 1e6);
    single "sim.result_us" "us" (mean_of lt.result 1e6);
    single "cc.compile_ms" "ms" (mean_of lt.cc 1e3);
    count "cc.programs" lt.cc.calls;
    single "campaign.self_us" "us" ((per_job untraced_s n_local -. per_job (library_secs lt) n_local) *. 1e6);
    single "daemon.job_us" "us" job_us;
    single "daemon.wait_us" "us" ((per_job !latency_s n_daemon *. 1e6) -. job_us);
    single "daemon.loop_lag_us" "us" (mean "ptaintd_loop_lag_us");
    single "daemon.bytes_per_job" "B" (bytes /. float_of_int n_daemon);
    single "daemon.cache_hit_ratio" "ratio" (if hits +. misses = 0. then 0. else hits /. (hits +. misses));
    single "daemon.rejected" "count" (delta "ptaintd_jobs_rejected_total");
    single "daemon.worker_restarts" "count" (delta "ptaintd_worker_restarts_total");
    single "daemon.redeliveries" "count" (delta "ptaintd_redeliveries_total");
    single "proto.encode_us" "us" (encode_s *. 1e6);
    single "proto.decode_us" "us" (decode_s *. 1e6);
    single "trace.overhead_pct" "%" (((traced_s /. untraced_s) -. 1.) *. 100.);
    single "trace.wall_s" "s" traced_s;
    single "trace.other_s" "s" (traced_s -. timed_secs lt);
    single "trace.client_other_s" "s" (daemon_s -. ct.submit_s -. ct.wait_s) ]

(* --- reporting --- *)

let run size ~seed ~trace ~ptaintd ~out name =
  let kind = List.assoc name workloads in
  let c = checks () in
  let sock = Printf.sprintf "e2e-%d.sock" (Unix.getpid ()) in
  let metrics =
    if trace then trace_run size ~seed ~ptaintd ~sock ~out ~name kind c
    else
      match kind with
      | Spec -> spec_run size ~seed kind c
      | Warm -> campaign_run size ~seed kind c
      | Daemon backend -> daemon_run size ~seed ~ptaintd ~sock kind backend c
  in
  (* an end-to-end metric is never 0: one that is had no samples *)
  List.iter
    (fun m ->
      if (not (Float.is_finite m.value)) || ((not trace) && m.value <= 0.) then
        fail c (Printf.sprintf "%s: no valid measurement (%g)" m.name m.value))
    metrics;
  (c, metrics)

let print_metric workload m =
  match m.samples with
  | [ _ ] -> Printf.printf "%s %s %.6g %s\n" workload m.name m.value m.unit_
  | samples ->
    let s = Stat.summarize samples in
    Printf.printf "%s %s %.6g %s n=%d median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g\n" workload
      m.name m.value m.unit_ s.Stat.n s.Stat.median s.Stat.q1 s.Stat.q3 s.Stat.min s.Stat.max

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_json c metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (c.failed = 0) c.attempted c.failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
                      (json_number m.value) m.unit_)
          metrics))

let report_errors workload c =
  List.iter (fun e -> Printf.eprintf "e2e: %s: check failed: %s\n%!" workload e) (List.rev c.errors)

(* Every workload, plain and traced, at a tiny size: the benchmark's
   own regression test. *)
let smoke ~ptaintd =
  let t0 = now () in
  let bad = ref 0 in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun trace ->
          let t = now () in
          let label = if trace then name ^ " (traced)" else name in
          match run smoke_size ~seed:7 ~trace ~ptaintd ~out:None name with
          | c, metrics when c.failed = 0 ->
            Printf.printf "smoke %-24s ok: %d jobs, %d metrics, %.2fs\n%!" label c.attempted
              (List.length metrics) (now () -. t)
          | c, _ ->
            incr bad;
            Printf.printf "smoke %-24s FAILED: %d of %d jobs\n%!" label c.failed c.attempted;
            report_errors name c
          | exception e ->
            incr bad;
            Printf.printf "smoke %-24s FAILED: %s\n%!" label (Printexc.to_string e))
        [ false; true ])
    workloads;
  Printf.printf "smoke: %d workloads, %d failures, %.1fs\n%!" (List.length workloads) !bad
    (now () -. t0);
  if !bad = 0 then 0 else 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 7 and seconds = ref 30. and trace = ref 0 in
  let ptaintd = ref "_build/default/bin/ptaintd.exe" and out = ref ".e2e" and smoke_mode = ref false in
  let names = String.concat ", " (List.map fst workloads) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  one of: " ^ names);
      ("--seed", Arg.Set_int seed, "N  input seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase (default 30)");
      ("--trace", Arg.Set_int trace, "0|1  per-layer run instead of end-to-end (default 0)");
      ("--ptaintd", Arg.Set_string ptaintd, "PATH  daemon executable");
      ("--out", Arg.Set_string out, "DIR  where traced runs write Chrome traces (default .e2e)");
      ("--smoke", Arg.Set smoke_mode, "  every workload, plain and traced, at a tiny size") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !smoke_mode then exit (smoke ~ptaintd:!ptaintd);
  if not (List.mem_assoc !workload workloads) then begin
    Printf.eprintf "e2e: unknown workload %S (expected one of: %s)\n" !workload names;
    exit 2
  end;
  let trace = !trace <> 0 in
  if trace && not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  match run (run_size !seconds) ~seed:!seed ~trace ~ptaintd:!ptaintd ~out:(Some !out) !workload with
  | exception e ->
    Printf.eprintf "e2e: %s: %s\n%!" !workload (Printexc.to_string e);
    exit 2
  | c, metrics ->
    List.iter (print_metric !workload) metrics;
    report_errors !workload c;
    print_json c metrics;
    exit (if c.failed = 0 then 0 else 1)
