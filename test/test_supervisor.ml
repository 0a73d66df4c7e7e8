(* Chaos tests for the process-isolated ptaintd backend (--isolate).

   The claim under test is containment with byte-identical results: a
   worker process SIGKILLed or SIGSTOPped mid-campaign must cost the
   campaign nothing — the daemon keeps serving, disturbed jobs are
   redelivered to surviving workers, the dead worker respawns, and
   the client-side metrics table rebuilt from streamed counter deltas
   equals the table a local, undisturbed run of the same jobs
   produces, byte for byte.

   These tests run against the real ptaintd binary, not an in-process
   server: worker respawn forks, and OCaml's [Unix.fork] refuses to
   run in any process that has ever created a second domain — which
   an in-process Alcotest harness inevitably has.  Driving the
   subprocess also exercises exactly what operators deploy.  For the
   same reason the chaos tests never spawn a domain in the test
   process: the chaos signal is fired from [run_batch]'s [on_event]
   hook on the main thread.  Only the last test does, for its local
   reference run, after its daemon has answered.

   The campaign shape is chosen so chaos strikes something: the first
   [workers] specs are spinners that pin every worker busy for 0.6 s
   (cooperative watchdog timeout), the rest are quick exit jobs
   queued behind them — so a signal sent 0.2 s in always interrupts
   an in-flight dispatch. *)

module Client = Ptaint_daemon.Client
module Proto = Ptaint_daemon.Proto
module Campaign = Ptaint_campaign.Campaign
module M = Ptaint_obs.Metrics

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let exit_asm = ".text\nmain: li $v0, 1\n li $a0, 0\n syscall\n"
let spin_asm = ".text\nmain: j main\n"

let spin_spec i =
  Proto.job_spec
    ~tag:(Printf.sprintf "spin-%d" i)
    ~timeout:0.6 ~max_instructions:max_int (Proto.Wire_asm spin_asm)

let exit_spec i =
  Proto.job_spec ~tag:(Printf.sprintf "exit-%d" i) (Proto.Wire_asm exit_asm)

let campaign_specs ~workers =
  List.init workers spin_spec @ List.init 12 exit_spec

(* --- driving the real daemon ----------------------------------------- *)

let ptaintd_exe () =
  (* dune runs tests with cwd [_build/default/test]; the second form
     covers a hand-run from the repo root *)
  match
    List.find_opt Sys.file_exists
      [ "../bin/ptaintd.exe"; "_build/default/bin/ptaintd.exe" ]
  with
  | Some exe -> exe
  | None -> Alcotest.fail "ptaintd.exe not built (declare it as a test dep)"

(* Direct children of [pid], from /proc — the supervisor's worker
   fleet, seen from outside the daemon. *)
let children_of pid =
  match Sys.readdir "/proc" with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map int_of_string_opt
    |> List.filter (fun p ->
        match
          In_channel.with_open_text
            (Printf.sprintf "/proc/%d/stat" p)
            In_channel.input_all
        with
        | exception _ -> false
        | stat -> (
          (* ppid is the 4th field, but comm (2nd) may contain spaces:
             parse from the last ')' *)
          match String.rindex_opt stat ')' with
          | None -> false
          | Some i -> (
            let rest =
              String.sub stat (i + 1) (String.length stat - i - 1)
              |> String.trim
            in
            match String.split_on_char ' ' rest with
            | _state :: ppid :: _ -> int_of_string_opt ppid = Some pid
            | _ -> false)))
    |> List.sort compare

let wait_until ~timeout ~what cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match cond () with
    | Some v -> v
    | None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail (Printf.sprintf "timed out waiting for %s" what)
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()

let terminate_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.02;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let sock_seq = ref 0

(* Launch [ptaintd --isolate --workers N] on a fresh socket, wait for
   the worker fleet to appear, and hand [f] the socket path and the
   workers' pids.  The daemon is torn down (SIGTERM, then SIGKILL)
   whatever [f] does. *)
let with_isolated_daemon ?(workers = 2) ?(max_inflight = 64) f =
  incr sock_seq;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ptaintd-sup-%d-%d.sock" (Unix.getpid ()) !sock_seq)
  in
  let exe = ptaintd_exe () in
  let argv =
    [| exe; "--socket"; path; "--isolate"; "--workers"; string_of_int workers;
       "--queue"; "128"; "--max-inflight"; string_of_int max_inflight; "--quiet" |]
  in
  let dpid = Unix.create_process exe argv Unix.stdin Unix.stdout Unix.stderr in
  Fun.protect
    ~finally:(fun () ->
      terminate_daemon dpid;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let pids =
        wait_until ~timeout:10.0 ~what:"worker fleet + socket" (fun () ->
            let kids = children_of dpid in
            if List.length kids = workers && Sys.file_exists path then Some kids
            else None)
      in
      Alcotest.(check int) "worker fleet forked" workers (List.length pids);
      f path pids)

let contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec scan i = i + n <= l && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

(* The connect-mode merge: per-label registries built in submission
   order from streamed counter deltas, rendered as the same aligned
   table the batch runner prints — the repo's daemon-vs-batch parity
   contract. *)
let table_builder () =
  let regs = ref [] in
  let merge label counters =
    let m =
      match List.assoc_opt label !regs with
      | Some m -> m
      | None ->
        let m = M.create () in
        regs := !regs @ [ (label, m) ];
        m
    in
    List.iter (fun (name, by) -> M.inc ~by (M.counter m name)) counters
  in
  (merge, fun () -> Campaign.metrics_table_of !regs)

(* What an undisturbed run of the same specs produces: each job run
   locally through the same campaign machinery a worker uses. *)
let local_table specs =
  let merge, render = table_builder () in
  List.iter
    (fun spec ->
      match Proto.job_of_spec spec with
      | Error m -> Alcotest.fail ("local job_of_spec: " ^ m)
      | Ok job ->
        let r, _ = Campaign.run_job ~keep:true (Campaign.Images.create ~capacity:1) job in
        merge r.Campaign.policy_label (Campaign.job_counters r))
    specs;
  render ()

let daemon_table outcomes =
  let merge, render = table_builder () in
  List.iter
    (fun o ->
      match o with
      | Client.Done (Proto.Finished f) -> merge f.policy_label f.counters
      | Client.Done (Proto.Job_failed f) -> merge f.policy_label f.counters
      | Client.Done (Proto.Started _) -> Alcotest.fail "Started is not terminal"
      | Client.Refused reason -> Alcotest.fail ("refused: " ^ reason))
    outcomes;
  render ()

(* The supervisor announces every delivery of a job, redeliveries
   included, with one [Started] before the job's terminal event: over
   the campaign's event stream, each job has at least one [Started],
   none after its terminal event, and the [Started]s number the jobs
   plus the redeliveries. *)
let check_deliveries events ~jobs ~redeliveries =
  let started = Hashtbl.create 16 and finished = Hashtbl.create 16 in
  List.iter
    (function
      | Proto.Started { id } ->
        if Hashtbl.mem finished id then Alcotest.failf "job %d: Started after its terminal event" id;
        Hashtbl.replace started id (1 + Option.value ~default:0 (Hashtbl.find_opt started id))
      | Proto.Finished { id; _ } | Proto.Job_failed { id; _ } -> Hashtbl.replace finished id ())
    events;
  Alcotest.(check int) "one terminal event per job" jobs (Hashtbl.length finished);
  Hashtbl.iter
    (fun id () -> if not (Hashtbl.mem started id) then Alcotest.failf "job %d: no Started" id)
    finished;
  Alcotest.(check int) "one Started per delivery" (jobs + redeliveries)
    (Hashtbl.fold (fun _ n acc -> n + acc) started 0)

(* Submit the campaign, strike one worker with [signal] 0.2 s in
   (from the event pump: by the first streamed event every worker is
   pinned on a spinner), await every terminal event, then prove the
   daemon kept serving and the results match an undisturbed local run
   byte for byte. *)
let chaos_campaign ~signal ~restart_reason path pids =
  let specs = campaign_specs ~workers:2 in
  let expected = local_table specs in
  let c = Client.connect ~client:"chaos" ~retries:3 path in
  let victim = List.hd pids in
  let struck = ref false in
  let events = ref [] in
  let on_event ev =
    events := ev :: !events;
    if not !struck then begin
      struck := true;
      Unix.sleepf 0.2;
      Unix.kill victim signal
    end
  in
  let outcomes = Client.run_batch ~on_event c specs in
  Alcotest.(check bool) "the strike fired" true !struck;
  Alcotest.(check string) "metrics table byte-identical to undisturbed run"
    expected (daemon_table outcomes);
  (* the daemon is still serving: a fresh job completes normally *)
  (match Client.submit c (Proto.job_spec ~tag:"alive" (Proto.Wire_asm exit_asm)) with
   | Error m -> Alcotest.fail ("daemon stopped serving: " ^ m)
   | Ok _ -> (
     let rec wait () =
       match Client.next_event c with
       | Proto.Started _ -> wait ()
       | Proto.Finished _ -> ()
       | Proto.Job_failed f -> Alcotest.fail ("post-chaos job failed: " ^ f.kind)
     in
     wait ()));
  let scrape = Client.stats_full c in
  let get = Counter_views.family scrape in
  Alcotest.(check int) "every admitted job completed"
    (List.length specs + 1) (get "ptaintd_jobs_total");
  Alcotest.(check int) "nothing left in flight" 0 (get "ptaintd_queue_depth");
  Alcotest.(check bool)
    (Printf.sprintf "restart counted under reason=%s" restart_reason)
    true
    (contains scrape
       (Printf.sprintf "ptaintd_worker_restarts_total{reason=\"%s\"} 1"
          restart_reason));
  Alcotest.(check bool) "disturbed job redelivered" true
    (contains scrape "ptaintd_redeliveries_total 1");
  check_deliveries (List.rev !events) ~jobs:(List.length specs) ~redeliveries:1;
  Client.close c

(* SIGKILL: the worker vanishes (pipe EOF), its spinner is redelivered
   to the survivor and times out there exactly as it would have. *)
let test_sigkill_mid_campaign () =
  with_isolated_daemon (fun path pids ->
      chaos_campaign ~signal:Sys.sigkill ~restart_reason:"crash" path pids)

(* SIGSTOP: the worker is alive but frozen mid-dispatch.  No EOF, no
   heartbeat — the preemptive dispatch deadline (job timeout + grace)
   is what must fire, SIGKILLing the zombie and redelivering. *)
let test_sigstop_mid_campaign () =
  with_isolated_daemon (fun path pids ->
      chaos_campaign ~signal:Sys.sigstop ~restart_reason:"deadline" path pids)

(* A stopped *idle* worker has no dispatch to blow a deadline on; the
   idle-heartbeat tolerance is the only thing that can notice it. *)
let test_sigstop_idle_heartbeat () =
  with_isolated_daemon (fun path pids ->
      let c = Client.connect ~client:"idle" ~retries:3 path in
      Unix.kill (List.nth pids 1) Sys.sigstop;
      (* outlive the 2 s beat tolerance, then demand service *)
      ignore
        (wait_until ~timeout:10.0 ~what:"heartbeat restart" (fun () ->
             if
               contains (Client.stats_full c)
                 "ptaintd_worker_restarts_total{reason=\"heartbeat\"} 1"
             then Some ()
             else None));
      Alcotest.(check bool) "heartbeat miss counted" true
        (contains (Client.stats_full c) "ptaintd_heartbeat_misses_total 1");
      (match Client.run_batch c (List.init 4 exit_spec) with
       | outcomes
         when List.for_all
                (function Client.Done (Proto.Finished _) -> true | _ -> false)
                outcomes -> ()
       | _ -> Alcotest.fail "jobs failed after idle-worker restart");
      Client.close c)

(* Each isolated worker gets the whole [--cache] capacity (64 by
   default), not a share of it: 20 distinct programs fit, so a second
   pass of the same programs through a single worker boots every job
   from that worker's cache, and the daemon's scrape reports 20 hits
   and 20 misses. *)
let test_isolated_cache_capacity () =
  with_isolated_daemon ~workers:1 (fun path _pids ->
      let c = Client.connect ~client:"cache" path in
      let specs =
        List.init 20 (fun i ->
            Proto.job_spec ~tag:(Printf.sprintf "prog-%d" i)
              (Proto.Wire_asm
                 (Printf.sprintf ".text\nmain: li $v0, 1\n li $a0, %d\n syscall\n" i)))
      in
      ignore (Client.run_batch c specs);
      List.iteri
        (fun i o ->
          match o with
          | Client.Done (Proto.Finished f) ->
            Alcotest.(check bool) (Printf.sprintf "prog-%d second pass hits the cache" i)
              true f.cache_hit
          | _ -> Alcotest.failf "prog-%d: second pass did not finish" i)
        (Client.run_batch c specs);
      let get = Counter_views.family (Client.stats_full c) in
      Alcotest.(check int) "cache hits" 20 (get "ptaintd_cache_hits");
      Alcotest.(check int) "cache misses" 20 (get "ptaintd_cache_misses");
      Client.close c)

(* The scrape after mixed traffic, with the same counts as the
   in-process daemon; see {!Counter_views}. *)
let test_isolated_counter_views () =
  with_isolated_daemon ~workers:1 ~max_inflight:1 (fun path _pids ->
      Counter_views.check path)

(* A single isolated worker process boots every job through its
   arena, whatever image the previous job ran: its events must match
   local runs of the same jobs ({!Arena_jobs}).  Runs last: the local
   [run_stream] reference spawns a domain in this process. *)
let test_isolated_arena_differential () =
  let events = with_isolated_daemon ~workers:1 (fun path _pids -> Arena_jobs.submit path) in
  Arena_jobs.check events

let () =
  Alcotest.run "supervisor"
    [ ( "chaos",
        [ Alcotest.test_case "SIGKILL mid-campaign" `Quick test_sigkill_mid_campaign;
          Alcotest.test_case "SIGSTOP mid-campaign" `Quick test_sigstop_mid_campaign;
          Alcotest.test_case "SIGSTOP idle worker" `Quick test_sigstop_idle_heartbeat ] );
      ( "cache",
        [ Alcotest.test_case "full capacity per isolated worker" `Quick
            test_isolated_cache_capacity ] );
      ( "counters",
        [ Alcotest.test_case "scrape counts after mixed traffic" `Quick
            test_isolated_counter_views ] );
      ( "arena",
        [ Alcotest.test_case "arena boots match local runs" `Quick
            test_isolated_arena_differential ] ) ]
