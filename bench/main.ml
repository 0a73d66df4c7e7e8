(* Benchmark harness: one Bechamel test (or group) per table/figure of
   the paper, so each experiment's cost is measured and simulator
   regressions show up.  Run with: dune exec bench/main.exe

   Flags:
     --quick     reduced iteration counts (the CI smoke job)
     --ips-only  skip the bechamel suite; only measure the
                 whole-simulator instructions-per-second numbers *)

open Bechamel
open Toolkit

let quick = Array.exists (( = ) "--quick") Sys.argv
let ips_only = Array.exists (( = ) "--ips-only") Sys.argv

(* --- helpers ------------------------------------------------------- *)

let run_program ?(policy = Ptaint_cpu.Policy.default) ?(stdin = "") ?(sessions = [])
    ?(argv = [ "bench" ]) ?(fs_init = []) ?(timing = false) program =
  let config = Ptaint_sim.Sim.config ~policy ~stdin ~sessions ~argv ~fs_init ~timing () in
  Ptaint_sim.Sim.run ~config program

let compiled source = Ptaint_runtime.Runtime.compile source

(* --- Table 1: propagation microbenchmark ---------------------------- *)

let alu_machine ?(tainted = true) () =
  let open Ptaint_isa in
  let insns =
    [| Insn.R (ADD, 8, 9, 10); Insn.R (XOR, 11, 8, 9); Insn.Shift (SLL, 12, 8, 4);
       Insn.R (AND, 13, 8, 9); Insn.R (SLT, 14, 8, 9); Insn.R (OR, 9, 12, 13);
       Insn.I (ADDIU, 10, 10, 1); Insn.J Ptaint_mem.Layout.text_base |]
  in
  let mem = Ptaint_mem.Memory.create () in
  let m =
    Ptaint_cpu.Machine.create
      ~code:{ Ptaint_cpu.Machine.base = Ptaint_mem.Layout.text_base; insns }
      ~mem ~entry:Ptaint_mem.Layout.text_base ()
  in
  if tainted then
    Ptaint_cpu.Regfile.set m.Ptaint_cpu.Machine.regs 9 (Ptaint_taint.Tword.tainted 0x1234);
  m

let tab1_bench =
  Test.make ~name:"tab1/alu-taint-propagation-10k"
    (Staged.stage (fun () ->
         let m = alu_machine () in
         for _ = 1 to 10_000 do
           ignore (Ptaint_cpu.Machine.step m)
         done))

(* --- Figure 1 -------------------------------------------------------- *)

let fig1_bench =
  Test.make ~name:"fig1/cert-breakdown"
    (Staged.stage (fun () -> ignore (Ptaint_cert.Cert.breakdown ())))

(* --- Figure 2 / section 5.1.1: synthetic attacks --------------------- *)

let attack_bench prefix ((s : Ptaint_attacks.Scenario.t), short) =
  let program = s.Ptaint_attacks.Scenario.build () in
  let config = Ptaint_attacks.Scenario.attack_config s program in
  Test.make ~name:(prefix ^ "/" ^ short)
    (Staged.stage (fun () -> ignore (Ptaint_sim.Sim.run ~config program)))

let synthetic_benches =
  List.map (attack_bench "fig2")
    [ (Ptaint_attacks.Catalog.exp1_stack_smash, "exp1-stack-smash");
      (Ptaint_attacks.Catalog.exp2_heap, "exp2-heap-corruption");
      (Ptaint_attacks.Catalog.exp3_format, "exp3-format-string") ]

(* --- Table 2 ---------------------------------------------------------- *)

let tab2_bench =
  attack_bench "tab2" (Ptaint_attacks.Catalog.wuftpd_format_uid, "wuftpd-attack-session")

(* --- Section 5.1.2 ---------------------------------------------------- *)

let real_world_benches =
  List.map (attack_bench "real")
    [ (Ptaint_attacks.Catalog.nullhttpd_cgi_root, "nullhttpd-heap");
      (Ptaint_attacks.Catalog.ghttpd_url_pointer, "ghttpd-url-pointer");
      (Ptaint_attacks.Catalog.traceroute_double_free, "traceroute-double-free") ]

(* --- Coverage matrix: the same attack under each policy --------------- *)

let coverage_benches =
  let s = Ptaint_attacks.Catalog.ghttpd_url_pointer in
  let program = s.Ptaint_attacks.Scenario.build () in
  let config = Ptaint_attacks.Scenario.attack_config s program in
  List.map
    (fun (name, policy) ->
      let config = { config with Ptaint_sim.Sim.policy = policy } in
      Test.make ~name:("coverage/ghttpd-" ^ name)
        (Staged.stage (fun () -> ignore (Ptaint_sim.Sim.run ~config program))))
    [ ("unprotected", Ptaint_cpu.Policy.unprotected);
      ("control-only", Ptaint_cpu.Policy.control_only);
      ("pointer-taint", Ptaint_cpu.Policy.default) ]

(* --- Table 3: the workloads (bench-sized inputs) ----------------------- *)

let bench_input (w : Ptaint_workloads.Workload.t) =
  match w.Ptaint_workloads.Workload.name with
  | "BZIP2" -> Wl_input.bzip
  | "GCC" -> Wl_input.gcc
  | "GZIP" -> Wl_input.gzip
  | "MCF" -> Wl_input.mcf
  | "PARSER" -> Wl_input.parser
  | "VPR" -> Wl_input.vpr
  | _ -> ""

let tab3_benches =
  List.map
    (fun (w : Ptaint_workloads.Workload.t) ->
      let program = Ptaint_workloads.Workload.program w in
      let stdin = bench_input w in
      Test.make ~name:("tab3/" ^ String.lowercase_ascii w.Ptaint_workloads.Workload.name)
        (Staged.stage (fun () -> ignore (run_program ~stdin program))))
    Ptaint_workloads.Workload.all

(* --- Table 4 ------------------------------------------------------------ *)

let tab4_bench =
  let program = compiled Ptaint_apps.Synthetic.fn_integer_overflow in
  Test.make ~name:"tab4/integer-overflow-fn"
    (Staged.stage (fun () -> ignore (run_program ~stdin:"\xff\xff\xff\xff" program)))

(* --- Section 5.4: overhead — taint tracking on/off ----------------------- *)

let overhead_benches =
  let program = Ptaint_workloads.Workload.program Ptaint_workloads.Workload.gcc in
  let stdin = Wl_input.gcc in
  [ Test.make ~name:"overhead/tracking-on"
      (Staged.stage (fun () ->
           ignore (run_program ~policy:Ptaint_cpu.Policy.default ~stdin program)));
    Test.make ~name:"overhead/tracking-off"
      (Staged.stage (fun () ->
           ignore (run_program ~policy:Ptaint_cpu.Policy.baseline_no_tracking ~stdin program)));
    Test.make ~name:"overhead/pipeline-timing-model"
      (Staged.stage (fun () -> ignore (run_program ~timing:true ~stdin program))) ]

(* --- Ablation ------------------------------------------------------------- *)

let ablation_bench =
  let program = Ptaint_workloads.Workload.program Ptaint_workloads.Workload.parser in
  let stdin = Wl_input.parser in
  let policy = { Ptaint_cpu.Policy.default with Ptaint_cpu.Policy.compare_untaints = false } in
  Test.make ~name:"ablation/no-compare-untaint"
    (Staged.stage (fun () -> ignore (run_program ~policy ~stdin program)))

(* --- campaign engine: batch submission of the synthetic matrix ------------- *)

let campaign_benches =
  let jobs domains_label =
    List.concat_map
      (fun (s : Ptaint_attacks.Scenario.t) ->
        let program = s.Ptaint_attacks.Scenario.build () in
        let config = Ptaint_attacks.Scenario.attack_config s program in
        List.map
          (fun (pname, policy) ->
            Ptaint_campaign.Campaign.job
              ~name:(domains_label ^ "/" ^ s.Ptaint_attacks.Scenario.name ^ "/" ^ pname)
              ~config:{ config with Ptaint_sim.Sim.policy } program)
          Ptaint_attacks.Scenario.coverage_policies)
      [ Ptaint_attacks.Catalog.exp1_stack_smash; Ptaint_attacks.Catalog.exp2_heap;
        Ptaint_attacks.Catalog.exp3_format ]
  in
  [ Test.make ~name:"campaign/synthetic-matrix-j1"
      (Staged.stage (fun () -> ignore (Ptaint_campaign.Campaign.run ~domains:1 (jobs "j1"))));
    Test.make ~name:"campaign/synthetic-matrix-jN"
      (Staged.stage (fun () -> ignore (Ptaint_campaign.Campaign.run (jobs "jN")))) ]

(* --- whole-simulator throughput: guest instructions per second -------------- *)

(* Measured directly (not through bechamel) so the number is the
   plain, interpretable ratio guest-instructions / wall-second on the
   real gzip/bzip workloads — the ROADMAP "as fast as the hardware
   allows" trajectory number. *)

let ips_workloads =
  [ (Ptaint_workloads.Workload.gzip, Wl_input.gzip);
    (Ptaint_workloads.Workload.bzip2, Wl_input.bzip) ]

let measure_ips () =
  (* Shed whatever heap the bechamel suite built up, so the throughput
     number does not depend on which benches ran before it. *)
  Gc.compact ();
  let reps = if quick then 1 else 3 in
  List.map
    (fun ((w : Ptaint_workloads.Workload.t), stdin) ->
      let program = Ptaint_workloads.Workload.program w in
      let run () =
        let t0 = Unix.gettimeofday () in
        let r = run_program ~stdin program in
        let dt = Unix.gettimeofday () -. t0 in
        (match r.Ptaint_sim.Sim.outcome with
         | Ptaint_sim.Sim.Exited 0 -> ()
         | o ->
           Format.eprintf "ips/%s: unexpected outcome %a@."
             w.Ptaint_workloads.Workload.name Ptaint_sim.Sim.pp_outcome o);
        (* a guard, not just a timer: these guests keep tainted input
           in memory all run, and most of their blocks must still run
           the clean variant (measured: gzip 0.62, bzip2 0.94).  The
           synthetic clean-fastpath loop has no memory taint, so only
           this row notices a tier that stops running real guests
           clean. *)
        let m = r.Ptaint_sim.Sim.machine in
        if m.Ptaint_cpu.Machine.clean_blocks < m.Ptaint_cpu.Machine.blocks_run / 2 then
          failwith
            (Printf.sprintf "ips/%s: clean variant not carrying the run (%d/%d blocks clean)"
               (String.lowercase_ascii w.Ptaint_workloads.Workload.name)
               m.Ptaint_cpu.Machine.clean_blocks m.Ptaint_cpu.Machine.blocks_run);
        float_of_int r.Ptaint_sim.Sim.instructions /. dt
      in
      ignore (run ());
      (* warm-up: compile cache, page tables *)
      let best = ref 0. in
      for _ = 1 to reps do
        let ips = run () in
        if ips > !best then best := ips
      done;
      let name = "ips/" ^ String.lowercase_ascii w.Ptaint_workloads.Workload.name in
      Printf.printf "%-12s %.0f guest instructions/second\n%!" name !best;
      (name, !best))
    ips_workloads

(* --- hot-path microbenchmarks: memory words, regfile, snapshots ------------- *)

let micro_mem_bench =
  Test.make ~name:"micro/mem-word-rw-4k"
    (Staged.stage (fun () ->
         let m = Ptaint_mem.Memory.create () in
         Ptaint_mem.Memory.map_range m ~lo:Ptaint_mem.Layout.data_base ~bytes:(64 * 1024);
         let base = Ptaint_mem.Layout.data_base in
         for i = 0 to 1023 do
           Ptaint_mem.Memory.store_word m
             (base + (i * 4))
             (Ptaint_taint.Tword.make ~v:i ~m:(i land 0xF))
         done;
         let acc = ref 0 in
         for i = 0 to 1023 do
           acc := !acc + Ptaint_taint.Tword.value (Ptaint_mem.Memory.load_word m (base + (i * 4)))
         done;
         ignore !acc))

let micro_regfile_bench =
  Test.make ~name:"micro/regfile-rw-10k"
    (Staged.stage (fun () ->
         let rf = Ptaint_cpu.Regfile.create () in
         for i = 1 to 10_000 do
           let r = 1 + (i land 30) in
           Ptaint_cpu.Regfile.set rf r (Ptaint_taint.Tword.make ~v:i ~m:(i land 0xF));
           ignore (Ptaint_cpu.Regfile.get rf r)
         done))

let micro_snapshot_bench =
  (* restore + dirty a handful of pages: the per-job cost the campaign
     engine pays instead of a full reload *)
  let m = Ptaint_mem.Memory.create () in
  let base = Ptaint_mem.Layout.data_base in
  Ptaint_mem.Memory.map_range m ~lo:base ~bytes:(64 * 1024);
  for i = 0 to (64 * 1024 / 4) - 1 do
    Ptaint_mem.Memory.store_word m (base + (i * 4)) (Ptaint_taint.Tword.make ~v:i ~m:(i land 0xF))
  done;
  let snap = Ptaint_mem.Memory.snapshot m in
  Test.make ~name:"micro/snapshot-restore-64k"
    (Staged.stage (fun () ->
         let r = Ptaint_mem.Memory.restore snap in
         for p = 0 to 3 do
           Ptaint_mem.Memory.store_word r
             (base + (p * Ptaint_mem.Layout.page_bytes))
             (Ptaint_taint.Tword.untainted p)
         done))

(* tracing overhead: the same interpreter loop with the event bus
   detached (the production default — must stay on the allocation-free
   path) and attached (ring pushes + milestone scans per step) *)
let micro_trace_off_bench =
  Test.make ~name:"micro/trace-off-10k"
    (Staged.stage (fun () ->
         let m = alu_machine () in
         for _ = 1 to 10_000 do
           ignore (Ptaint_cpu.Machine.step m)
         done))

let micro_trace_on_bench =
  Test.make ~name:"micro/trace-on-10k"
    (Staged.stage (fun () ->
         let m = alu_machine () in
         Ptaint_cpu.Machine.attach_obs m (Ptaint_obs.Trace.create ());
         for _ = 1 to 10_000 do
           ignore (Ptaint_cpu.Machine.step m)
         done))

(* bulk driver from a cold start: the same ALU loop through
   [Machine.run] on a fresh machine, so each run executes the loop's
   first [Superblock.threshold - 1] passes on [step_core], translates
   the block, and spends the rest in its self-chained superblock — with
   live taint (full variant) and fully clean (clean variant).  The
   block-dispatch row keeps its historical name: CI requires it and
   gates micro/log-off-10k against it. *)
let micro_block_dispatch_bench =
  Test.make ~name:"micro/block-dispatch-10k"
    (Staged.stage (fun () ->
         let m = alu_machine () in
         ignore (Ptaint_cpu.Machine.run m ~fuel:10_000)))

let micro_clean_fastpath_bench =
  Test.make ~name:"micro/clean-fastpath-10k"
    (Staged.stage (fun () ->
         let m = alu_machine ~tainted:false () in
         ignore (Ptaint_cpu.Machine.run m ~fuel:10_000);
         (* a guard, not just a timer: this row exists to measure the
            superblock tier's clean variant, so a loop left on
            [step_core] (never promoted, or never chained) or a
            translated block that took the full variant must fail the
            bench, not silently time the wrong path.  Every cold
            block is clean here too, so [clean_blocks = blocks_run]
            alone would not notice a missing translation. *)
         if m.Ptaint_cpu.Machine.sb_promoted = 0
            || m.Ptaint_cpu.Machine.chain_hits = 0
            || m.Ptaint_cpu.Machine.clean_blocks < m.Ptaint_cpu.Machine.blocks_run
         then
           failwith
             (Printf.sprintf
                "micro/clean-fastpath-10k: clean path not taken \
                 (%d promoted, %d chain hits, %d/%d blocks clean)"
                m.Ptaint_cpu.Machine.sb_promoted m.Ptaint_cpu.Machine.chain_hits
                m.Ptaint_cpu.Machine.clean_blocks m.Ptaint_cpu.Machine.blocks_run)))

(* superblock tier, steady state: the machines persist across
   invocations, so after the warm-up runs every hot block is
   translated and the timed runs never leave the compiled chains.
   [superblock-dispatch] spins one tainted self-looping block (full
   variant, self-chained); [chain-hit] walks a ring of four blocks
   linked by direct jumps (clean variant, every crossing a patched
   chain edge).  Both rows assert the tier actually carried the load. *)
let micro_superblock_dispatch_bench =
  let m = alu_machine () in
  ignore (Ptaint_cpu.Machine.run m ~fuel:20_000);
  Test.make ~name:"micro/superblock-dispatch-10k"
    (Staged.stage (fun () ->
         let before = m.Ptaint_cpu.Machine.chain_hits in
         ignore (Ptaint_cpu.Machine.run m ~fuel:10_000);
         if m.Ptaint_cpu.Machine.sb_promoted = 0
            || m.Ptaint_cpu.Machine.chain_hits - before < 1_000
         then
           failwith
             (Printf.sprintf
                "micro/superblock-dispatch-10k: tier not engaged \
                 (%d promoted, %d chain hits this run)"
                m.Ptaint_cpu.Machine.sb_promoted
                (m.Ptaint_cpu.Machine.chain_hits - before))))

let chain_machine () =
  let open Ptaint_isa in
  let tb = Ptaint_mem.Layout.text_base in
  let insns =
    [| Insn.I (ADDIU, 8, 8, 1); Insn.J (tb + 8);
       Insn.I (ADDIU, 9, 9, 1); Insn.J (tb + 16);
       Insn.I (ADDIU, 10, 10, 1); Insn.J (tb + 24);
       Insn.I (ADDIU, 11, 11, 1); Insn.J tb |]
  in
  let mem = Ptaint_mem.Memory.create () in
  Ptaint_cpu.Machine.create
    ~code:{ Ptaint_cpu.Machine.base = tb; insns }
    ~mem ~entry:tb ()

let micro_chain_hit_bench =
  let m = chain_machine () in
  ignore (Ptaint_cpu.Machine.run m ~fuel:20_000);
  Test.make ~name:"micro/chain-hit-10k"
    (Staged.stage (fun () ->
         let before = m.Ptaint_cpu.Machine.chain_hits in
         ignore (Ptaint_cpu.Machine.run m ~fuel:10_000);
         if m.Ptaint_cpu.Machine.chain_hits - before < 4_000 then
           failwith
             (Printf.sprintf
                "micro/chain-hit-10k: chains not linking (%d hits this run)"
                (m.Ptaint_cpu.Machine.chain_hits - before))))

(* fuel-sliced execution: the same bulk loop chopped into
   watchdog/fault-injection slices (Fi.default_slice) with a deadline
   check per boundary — the cost the hardened campaign runtime and the
   injection engine add over micro/block-dispatch-10k *)
let micro_sliced_run_bench =
  Test.make ~name:"micro/sliced-run-10k"
    (Staged.stage (fun () ->
         let m = alu_machine () in
         let deadline = Unix.gettimeofday () +. 3600.0 in
         let slice = Ptaint_fi.Fi.default_slice in
         let rec go fuel =
           if fuel > 0 then begin
             if Unix.gettimeofday () > deadline then failwith "bench watchdog";
             ignore (Ptaint_cpu.Machine.run m ~fuel:(min slice fuel));
             go (fuel - slice)
           end
         in
         go 10_000))

(* arena recycling: the streaming campaign's per-job boot cost.  The
   arena row boots and finishes a prepared image 10k times through
   this domain's recycled machine (reset-in-place from the image
   snapshot, pre-decoded blocks shared by reference); the
   template-boot row boots the same image 10k times from a fresh
   restore of its snapshot (new machine, new page table); the
   fresh-boot row pays what the pipeline used to pay per job —
   re-load every initial byte and re-decode the text — 100 times.
   The CI bench gate holds arena reuse to >= 2x over both per job:
   the arena must be cheaper than the fresh restore it replaces, not
   only than a full re-load. *)
let arena_image =
  let program = compiled "int main(void) { int x = 21; return x - 21; }" in
  (program, Ptaint_sim.Sim.prepare program)

let micro_arena_reuse_bench =
  let _, image = arena_image in
  Test.make ~name:"micro/arena-reuse-10k"
    (Staged.stage (fun () ->
         for _ = 1 to 10_000 do
           ignore (Ptaint_sim.Sim.run_template_arena image)
         done))

let micro_template_boot_bench =
  let _, image = arena_image in
  Test.make ~name:"micro/template-boot-10k"
    (Staged.stage (fun () ->
         for _ = 1 to 10_000 do
           ignore (Ptaint_sim.Sim.run_template image)
         done))

let micro_fresh_boot_bench =
  let program, _ = arena_image in
  Test.make ~name:"micro/fresh-boot-100"
    (Staged.stage (fun () ->
         for _ = 1 to 100 do
           ignore (Ptaint_sim.Sim.run program)
         done))

(* telemetry overhead: the structured log with every call site below
   the configured level (the compiled-in-but-disabled production
   default — one level comparison per call, gated <1% of
   micro/block-dispatch-10k in CI), and a full Prometheus render of a
   registry shaped like the daemon's (the per-scrape cost). *)
let micro_log_off_bench =
  let null = Ptaint_obs.Log.fn_sink (fun _ -> ()) in
  let log = Ptaint_obs.Log.create ~level:Ptaint_obs.Log.Warn null in
  Test.make ~name:"micro/log-off-10k"
    (Staged.stage (fun () ->
         let m = alu_machine () in
         (* the bulk engine sliced the way the campaign runtime drives
            it, with a below-level log call at every slice boundary —
            where production telemetry actually sits.  CI gates this
            row at <1% over micro/block-dispatch-10k: disabled
            telemetry must stay compiled into the hot loop for free. *)
         for slice = 1 to 10 do
           Ptaint_obs.Log.debug log ~src:"bench" "slice"
             [ Ptaint_obs.Log.int "slice" slice ];
           ignore (Ptaint_cpu.Machine.run m ~fuel:1_000)
         done))

let micro_metrics_scrape_bench =
  let m = Ptaint_obs.Metrics.create () in
  List.iter
    (fun outcome ->
      Ptaint_obs.Metrics.inc ~by:100
        (Ptaint_obs.Metrics.counter m ~labels:[ ("outcome", outcome) ] "ptaintd_jobs_total"))
    [ "exited"; "alert"; "fault"; "timeout" ];
  Ptaint_obs.Metrics.set (Ptaint_obs.Metrics.gauge m "ptaintd_queue_depth") 12.0;
  let lat = Ptaint_obs.Metrics.histogram m "ptaintd_job_duration_us" in
  let lag = Ptaint_obs.Metrics.histogram m "ptaintd_loop_lag_us" in
  for i = 1 to 1000 do
    Ptaint_obs.Metrics.observe lat (float_of_int (i * 37));
    Ptaint_obs.Metrics.observe lag (float_of_int (i land 255))
  done;
  Test.make ~name:"micro/metrics-scrape"
    (Staged.stage (fun () -> ignore (Ptaint_obs.Metrics.prometheus m)))

(* ptaintd framing: 10k [Finished] frames, the daemon's per-job
   terminal event, read through one frame reader from a memory-backed
   stream that hands out one frame's worth of bytes per read, as a
   socket does to a client waiting on each event — the client side of
   every job, without the socket.  A guard, not just a timer:
   a frame read may put on the major heap no more than the decoded
   value itself occupies (nothing, for a value this small).  A reader
   that allocated its receive buffer per read, as each endpoint once
   did (64 KiB, 8,192 words), fails the bench. *)
let micro_frame_read_bench =
  let frames = 10_000 in
  let frame =
    Ptaint_daemon.Proto.encode_response
      (Ptaint_daemon.Proto.Job_event
         (Ptaint_daemon.Proto.Finished
            { id = 4242; tag = "gen-7/prog-3/job-118"; outcome = "exited with status 0";
              exit_code = 0; instructions = 1_234; syscalls = 9;
              policy_label = "pointer taintedness"; cache_hit = true;
              counters =
                [ ("jobs", 1); ("instructions", 1_234); ("syscalls", 9);
                  ("tainted loads", 3); ("tainted stores", 2) ];
              stdout = "ok\n"; trace = Some (0x1234_5678_9abc, 118) }))
  in
  let stream = String.concat "" (List.init frames (fun _ -> frame)) in
  let chunk = String.length frame in
  let value_words =
    match Ptaint_daemon.Proto.decode_response frame with
    | Ok (Some (v, _)) -> Obj.reachable_words (Obj.repr v)
    | _ -> failwith "micro/frame-read-10k: fixture does not decode"
  in
  let reader = Ptaint_daemon.Proto.response_reader () in
  Test.make ~name:"micro/frame-read-10k"
    (Staged.stage (fun () ->
         let pos = ref 0 in
         let read buf off len =
           let n = min (min len chunk) (String.length stream - !pos) in
           Bytes.blit_string stream !pos buf off n;
           pos := !pos + n;
           n
         in
         let before = Gc.quick_stat () in
         for _ = 1 to frames do
           let rec one () =
             match Ptaint_daemon.Proto.next reader with
             | Ok (Some _) -> ()
             | Ok None ->
               if Ptaint_daemon.Proto.fill reader read = 0 then
                 failwith "micro/frame-read-10k: stream ended early";
               one ()
             | Error e ->
               failwith ("micro/frame-read-10k: " ^ Ptaint_daemon.Proto.error_message e)
           in
           one ()
         done;
         let after = Gc.quick_stat () in
         (* direct major allocation: everything the major heap gained
            that the minor collector did not promote *)
         let direct =
           after.Gc.major_words -. before.Gc.major_words
           -. (after.Gc.promoted_words -. before.Gc.promoted_words)
         in
         if direct > float_of_int (frames * value_words) then
           failwith
             (Printf.sprintf
                "micro/frame-read-10k: %.0f major-heap words per frame read \
                 (decoded value: %d words)"
                (direct /. float_of_int frames) value_words)))

let micro_benches =
  [ micro_mem_bench; micro_regfile_bench; micro_snapshot_bench; micro_trace_off_bench;
    micro_trace_on_bench; micro_block_dispatch_bench; micro_clean_fastpath_bench;
    micro_superblock_dispatch_bench; micro_chain_hit_bench;
    micro_sliced_run_bench; micro_arena_reuse_bench; micro_template_boot_bench;
    micro_fresh_boot_bench;
    micro_log_off_bench; micro_metrics_scrape_bench; micro_frame_read_bench ]

(* --- driver ----------------------------------------------------------------- *)

let tests =
  Test.make_grouped ~name:"ptaint"
    (micro_benches @ [ fig1_bench; tab1_bench ] @ synthetic_benches @ [ tab2_bench ]
     @ real_world_benches @ coverage_benches @ tab3_benches @ [ tab4_bench ]
     @ overhead_benches @ [ ablation_bench ] @ campaign_benches)

let () =
  let bechamel_rows =
    if ips_only then []
    else begin
      let quota = if quick then Time.second 0.05 else Time.second 0.5 in
      let limit = if quick then 20 else 200 in
      let cfg = Benchmark.cfg ~limit ~quota ~stabilize:true () in
      let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let clock = Analyze.all ols Instance.monotonic_clock raw in
      let rows = ref [] in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> rows := (name, est) :: !rows
          | _ -> ())
        clock;
      let rows = List.sort compare !rows in
      print_endline "benchmark results (wall time per run, monotonic clock):\n";
      print_string
        (Ptaint_report.Report.table ~headers:[ "benchmark"; "time per run" ]
           (List.map
              (fun (name, ns) ->
                let pretty =
                  if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
                  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
                  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
                  else Printf.sprintf "%.0f ns" ns
                in
                [ name; pretty ])
              rows));
      rows
    end
  in
  print_endline "\nwhole-simulator throughput:";
  let ips_rows = measure_ips () in
  (* machine-readable mirror so the perf trajectory can be diffed
     across PRs: bechamel rows are ns-per-run, ips/* rows are guest
     instructions per wall second. *)
  let json_rows = bechamel_rows @ ips_rows in
  let json_escape s =
    String.concat ""
      (List.map
         (fun c ->
           match c with
           | '"' -> "\\\""
           | '\\' -> "\\\\"
           | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
           | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  let oc = open_out "BENCH_results.json" in
  output_string oc "{\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "  \"%s\": %.3f%s\n" (json_escape name) ns
        (if i = List.length json_rows - 1 then "" else ","))
    json_rows;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "\nwrote %d results to BENCH_results.json\n" (List.length json_rows)
