open Ptaint_attacks
module Campaign = Ptaint_campaign.Campaign
module Job = Ptaint_campaign.Job

let buf_add = Buffer.add_string

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)

let fig1 () =
  let buf = Buffer.create 1024 in
  buf_add buf (Ptaint_report.Report.section "Figure 1: CERT advisories 2000-2003 by vulnerability class");
  let rows =
    List.map
      (fun (c, n) -> (Ptaint_cert.Cert.category_name c, n))
      (Ptaint_cert.Cert.breakdown ())
  in
  buf_add buf (Ptaint_report.Report.bar_chart rows);
  let mem, total, share = Ptaint_cert.Cert.memory_corruption_share () in
  buf_add buf
    (Printf.sprintf
       "\nMemory-corruption classes: %d of %d advisories = %.1f%% (paper: 67%%).\n\
        Per-category counts are a documented reconstruction; see DESIGN.md.\n"
       mem total share);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

let tab1 () =
  let open Ptaint_isa in
  let open Ptaint_taint in
  let open Ptaint_cpu in
  let buf = Buffer.create 2048 in
  buf_add buf (Ptaint_report.Report.section "Table 1: taintedness propagation by ALU instructions");
  let demo name insn setup describe =
    let mem = Ptaint_mem.Memory.create () in
    let machine =
      Machine.create
        ~code:{ Machine.base = Ptaint_mem.Layout.text_base; insns = [| insn |] }
        ~mem ~entry:Ptaint_mem.Layout.text_base ()
    in
    setup machine;
    let before = describe machine in
    (match Machine.step machine with
     | Machine.Normal -> ()
     | _ -> failwith "tab1 demo step failed");
    let after = describe machine in
    [ name; Insn.to_string insn; before; after ]
  in
  let reg_mask m r = Format.asprintf "%a" (Mask.pp ?bytes:None) (Tword.mask (Regfile.get m.Machine.regs r)) in
  let set m r w = Regfile.set m.Machine.regs r w in
  let rows =
    [ demo "generic ALU: OR of operand taint" (Insn.R (ADD, 1, 2, 3))
        (fun m ->
          set m 2 (Tword.make ~v:5 ~m:0b0001);
          set m 3 (Tword.make ~v:7 ~m:0b0100))
        (fun m -> Printf.sprintf "r2=%s r3=%s r1=%s" (reg_mask m 2) (reg_mask m 3) (reg_mask m 1));
      demo "shift: taint moves with bytes" (Insn.Shift (SLL, 1, 2, 8))
        (fun m -> set m 2 (Tword.make ~v:0xAB ~m:0b0001))
        (fun m -> Printf.sprintf "r2=%s r1=%s" (reg_mask m 2) (reg_mask m 1));
      demo "AND with untainted zero untaints" (Insn.R (AND, 1, 2, 3))
        (fun m ->
          set m 2 (Tword.make ~v:0x11223344 ~m:0b1111);
          set m 3 (Tword.untainted 0x0000FFFF))
        (fun m -> Printf.sprintf "r2=%s r3=%s r1=%s" (reg_mask m 2) (reg_mask m 3) (reg_mask m 1));
      demo "XOR R1,R2,R2 zeroing idiom" (Insn.R (XOR, 1, 2, 2))
        (fun m -> set m 2 (Tword.tainted 0xABCD))
        (fun m -> Printf.sprintf "r2=%s r1=%s" (reg_mask m 2) (reg_mask m 1));
      demo "compare untaints its operands" (Insn.R (SLT, 1, 2, 3))
        (fun m ->
          set m 2 (Tword.tainted 3);
          set m 3 (Tword.untainted 10))
        (fun m -> Printf.sprintf "r2=%s r3=%s r1=%s" (reg_mask m 2) (reg_mask m 3) (reg_mask m 1)) ]
  in
  buf_add buf
    (Ptaint_report.Report.table
       ~headers:[ "rule"; "instruction"; "taint before"; "taint after" ]
       rows);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figures 2/3, synthetic detections                                   *)

let describe_run scenario policy =
  let verdict, result = Scenario.run ~policy scenario in
  Format.asprintf "  under %s: %a\n"
    (match policy.Ptaint_cpu.Policy.mode with
     | Ptaint_cpu.Policy.No_protection -> "no protection"
     | Ptaint_cpu.Policy.Control_data_only -> "control-data-only protection"
     | Ptaint_cpu.Policy.Pointer_taintedness -> "pointer-taintedness detection")
    Scenario.pp_verdict verdict
  ^
  match result.Ptaint_sim.Sim.outcome with
  | Ptaint_sim.Sim.Exited _ when result.Ptaint_sim.Sim.stdout <> "" ->
    Printf.sprintf "    guest output: %s\n" (String.escaped result.Ptaint_sim.Sim.stdout)
  | _ -> ""

let fig2 () =
  let buf = Buffer.create 4096 in
  buf_add buf
    (Ptaint_report.Report.section
       "Figure 2: stack smashing, heap corruption and format string attacks");
  List.iter
    (fun (s : Scenario.t) ->
      buf_add buf (Printf.sprintf "%s\n  %s\n" s.Scenario.name s.Scenario.description);
      buf_add buf (describe_run s Ptaint_cpu.Policy.unprotected);
      buf_add buf (describe_run s Ptaint_cpu.Policy.default);
      buf_add buf "\n")
    [ Catalog.exp1_stack_smash; Catalog.exp2_heap; Catalog.exp3_format ];
  Buffer.contents buf

let fig3 () =
  let buf = Buffer.create 2048 in
  buf_add buf (Ptaint_report.Report.section "Figure 3: detector placement and taint hardware activity");
  buf_add buf
    "Detectors: indirect jumps (JR/JALR) are checked after ID/EX; load/store\n\
     effective addresses after EX/MEM; a flagged instruction raises the security\n\
     exception at retirement.  Running the GZIP workload through the pipeline\n\
     timing model counts the taint hardware's work:\n\n";
  let w = Ptaint_workloads.Workload.gzip in
  let p = Ptaint_workloads.Workload.program w in
  let config =
    { Ptaint_sim.Sim.default_config with
      Ptaint_sim.Sim.stdin = w.Ptaint_workloads.Workload.input ();
      timing = true }
  in
  let r = Ptaint_sim.Sim.run ~config p in
  (match r.Ptaint_sim.Sim.pipeline with
   | Some st ->
     buf_add buf
       (Ptaint_report.Report.kv
          [ ("instructions", Ptaint_report.Report.commas st.Ptaint_cpu.Pipeline.instructions);
            ("cycles", Ptaint_report.Report.commas st.Ptaint_cpu.Pipeline.cycles);
            ( "CPI",
              Printf.sprintf "%.2f"
                (float_of_int st.Ptaint_cpu.Pipeline.cycles
                 /. float_of_int (max 1 st.Ptaint_cpu.Pipeline.instructions)) );
            ("taint OR-gate operations", Ptaint_report.Report.commas st.Ptaint_cpu.Pipeline.taint_gate_ops);
            ("detector checks (1-bit ORs)", Ptaint_report.Report.commas st.Ptaint_cpu.Pipeline.detector_checks);
            ("load-use stalls", Ptaint_report.Report.commas st.Ptaint_cpu.Pipeline.load_use_stalls);
            ("control flushes", Ptaint_report.Report.commas st.Ptaint_cpu.Pipeline.control_flushes) ])
   | None -> ());
  let mem_stats = Ptaint_mem.Memory.stats r.Ptaint_sim.Sim.image.Ptaint_asm.Loader.mem in
  buf_add buf "\nMemory-system taint activity for the same run:\n\n";
  buf_add buf
    (Ptaint_report.Report.kv
       [ ("loads", Ptaint_report.Report.commas mem_stats.Ptaint_mem.Memory.loads);
         ("stores", Ptaint_report.Report.commas mem_stats.Ptaint_mem.Memory.stores);
         ( "loads returning tainted bytes",
           Ptaint_report.Report.commas mem_stats.Ptaint_mem.Memory.tainted_loads );
         ( "stores writing tainted bytes",
           Ptaint_report.Report.commas mem_stats.Ptaint_mem.Memory.tainted_stores ) ]);
  buf_add buf
    "\nNone of the taint operations sit on the pipeline's critical path: every one\n\
     is an OR alongside an existing ALU/loadstore operation (section 5.4).\n";
  Buffer.contents buf

let synthetic () =
  let buf = Buffer.create 4096 in
  buf_add buf (Ptaint_report.Report.section "Section 5.1.1: synthetic vulnerable programs");
  List.iter
    (fun ((s : Scenario.t), note) ->
      let verdict, _ = Scenario.run s in
      buf_add buf (Printf.sprintf "%s\n  %s\n  %s\n\n" s.Scenario.name note
                     (Format.asprintf "%a" Scenario.pp_verdict verdict)))
    [ (Catalog.exp1_stack_smash,
       "paper: alert at JR $31 with the return address tainted as 0x61616161");
      (Catalog.exp2_heap,
       "paper: alert inside free() dereferencing B->fd = 0x61616161 (ours fires at the\n\
       \  unlink store through FD, base register 0x61616169 = FD+8)");
      (Catalog.exp3_format,
       "paper: alert at SW $21,0($3) in vfprintf with $3 = 0x64636261") ];
  (* The full incident report for exp1 — what the operator actually
     sees on an alert: backtrace, tainted registers, the instruction
     window and the taint-provenance narrative back to the syscall
     that delivered the bytes. *)
  let _, result = Scenario.run Catalog.exp1_stack_smash in
  buf_add buf "incident report for exp1:\n\n";
  buf_add buf (Ptaint_sim.Diagnostics.report result);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table 2: WU-FTPD transcript                                         *)

let tab2 () =
  let buf = Buffer.create 4096 in
  buf_add buf (Ptaint_report.Report.section "Table 2: attacking WU-FTPD on the proposed architecture");
  let scenario = Catalog.wuftpd_format_uid in
  let program = scenario.Scenario.build () in
  let uid_addr = Ptaint_asm.Program.symbol_exn program Ptaint_apps.Wuftpd.uid_symbol in
  let verdict, result = Scenario.run scenario in
  let client_lines =
    [ "user user1"; "pass xxxxxxx (the correct password of user1)";
      Printf.sprintf "site exec <format payload targeting the uid word at 0x%08x>" uid_addr ]
  in
  let server_replies = result.Ptaint_sim.Sim.net_sent in
  buf_add buf "FTP Server  | ";
  (match server_replies with
   | banner :: _ -> buf_add buf (String.trim banner)
   | [] -> ());
  buf_add buf "\n";
  List.iteri
    (fun i line ->
      buf_add buf (Printf.sprintf "FTP Client  | %s\n" line);
      match List.nth_opt server_replies (i + 1) with
      | Some reply when i < 2 -> buf_add buf (Printf.sprintf "FTP Server  | %s\n" (String.trim reply))
      | _ -> ())
    client_lines;
  (match verdict with
   | Scenario.Detected a ->
     buf_add buf (Format.asprintf "Alert       | %a\n" Ptaint_cpu.Machine.pp_alert a);
     buf_add buf
       (Printf.sprintf
          "\nThe store's base register holds 0x%08x — exactly the uid word the attacker\n\
           targeted (the paper's $3=0x1002bc20).  The FTP server is stopped before the\n\
           uid word is written.\n"
          (Ptaint_taint.Tword.value a.Ptaint_cpu.Machine.reg_value))
   | v -> buf_add buf (Format.asprintf "UNEXPECTED: %a\n" Scenario.pp_verdict v));
  let verdict_np, result_np = Scenario.run ~policy:Ptaint_cpu.Policy.unprotected scenario in
  buf_add buf
    (Format.asprintf
       "\nWithout protection the same session ends with: %a\n/etc/passwd after the attack: %s\n"
       Scenario.pp_verdict verdict_np
       (match
          Ptaint_os.Fs.read (Ptaint_os.Kernel.fs result_np.Ptaint_sim.Sim.kernel)
            ~path:Ptaint_apps.Wuftpd.passwd_path
        with
        | Some s -> String.escaped s
        | None -> "<missing>"));
  Buffer.contents buf

let real_world () =
  let buf = Buffer.create 4096 in
  buf_add buf (Ptaint_report.Report.section "Section 5.1.2: real-world network applications");
  List.iter
    (fun (s : Scenario.t) ->
      buf_add buf (Printf.sprintf "%s (%s attack)\n  %s\n" s.Scenario.name
                     (Scenario.kind_name s.Scenario.kind) s.Scenario.description);
      buf_add buf (describe_run s Ptaint_cpu.Policy.default);
      buf_add buf (describe_run s Ptaint_cpu.Policy.control_only);
      buf_add buf (describe_run s Ptaint_cpu.Policy.unprotected);
      buf_add buf "\n")
    Catalog.real_world;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Coverage matrix                                                     *)

let coverage ?domains ?trace () =
  let buf = Buffer.create 4096 in
  buf_add buf (Ptaint_report.Report.section "Section 5.1: security coverage matrix");
  let headers =
    "attack" :: "class" :: List.map fst Scenario.coverage_policies @ [ "benign run (PT)" ]
  in
  (* the whole matrix — scenario × policy × case — as one campaign *)
  let per_scenario =
    List.map
      (fun (s : Scenario.t) ->
        let program = s.Scenario.build () in
        let atk = Scenario.attack s in
        let jobs =
          List.map
            (fun (pname, policy) ->
              Job.make
                ~tag:(Printf.sprintf "%s / %s / %s" s.Scenario.name atk.Scenario.case_name pname)
                ~policy_label:pname
                ~config:{ (atk.Scenario.config program) with Ptaint_sim.Sim.policy }
                (Job.Image program))
            Scenario.coverage_policies
          @
          match Scenario.benign s with
          | None -> []
          | Some c ->
            [ Job.make
                ~tag:(Printf.sprintf "%s / %s" s.Scenario.name c.Scenario.case_name)
                ~policy_label:"benign (PT)"
                ~expect:(fun r ->
                  match Scenario.verdict_of s r with
                  | Scenario.Survived -> None
                  | v -> Some ("false positive: " ^ Scenario.verdict_name v))
                ~config:(c.Scenario.config program) (Job.Image program) ]
        in
        (s, jobs))
      Catalog.all
  in
  let results, stats = Campaign.run_jobs ?domains ?trace (List.concat_map snd per_scenario) in
  let cell (s : Scenario.t) (r : Campaign.job_result) =
    match r.Campaign.status with
    | Campaign.Finished res -> Scenario.verdict_name (Scenario.verdict_of s res)
    | Campaign.Failed f -> "job error: " ^ f.Campaign.exn
  in
  let remaining = ref results in
  let take n =
    let rec go n acc =
      if n = 0 then List.rev acc
      else
        match !remaining with
        | [] -> invalid_arg "coverage: result list shorter than job list"
        | r :: rest ->
          remaining := rest;
          go (n - 1) (r :: acc)
    in
    go n []
  in
  let rows =
    List.map
      (fun ((s : Scenario.t), jobs) ->
        let cells, benign =
          match take (List.length jobs) with
          | [ a; b; c ] -> ([ a; b; c ], "-")
          | [ a; b; c; bn ] -> ([ a; b; c ], cell s bn)
          | _ -> invalid_arg "coverage: unexpected job shape"
        in
        (s.Scenario.name :: Scenario.kind_name s.Scenario.kind :: List.map (cell s) cells)
        @ [ benign ])
      per_scenario
  in
  buf_add buf (Ptaint_report.Report.table ~headers rows);
  buf_add buf
    "\nPointer taintedness detects every attack; the control-data-only baseline\n\
     (Minos / Secure Program Execution style) misses all non-control-data attacks\n\
     and the corruptions that crash before any control transfer.\n";
  buf_add buf "\ncampaign metrics by policy:\n\n";
  buf_add buf (Campaign.metrics_table stats);
  buf_add buf (Format.asprintf "\n%a\n" Campaign.pp_stats stats);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)

let tab3 ?domains ?trace () =
  let buf = Buffer.create 2048 in
  buf_add buf
    (Ptaint_report.Report.section "Table 3: false positives on SPEC2000-like workloads");
  (* compile on the submitting domain (shared cache), simulate on the pool *)
  let prepared =
    List.map (fun w -> (w, Ptaint_workloads.Workload.program w)) Ptaint_workloads.Workload.all
  in
  let jobs =
    List.map
      (fun ((w : Ptaint_workloads.Workload.t), p) ->
        Job.make ~tag:("tab3/" ^ w.Ptaint_workloads.Workload.name)
          ~expect:(fun r ->
            match r.Ptaint_sim.Sim.outcome with
            | Ptaint_sim.Sim.Exited 0 -> None
            | o -> Some (Format.asprintf "expected clean exit, got %a" Ptaint_sim.Sim.pp_outcome o))
          ~config:(Ptaint_workloads.Workload.config_for w) (Job.Image p))
      prepared
  in
  let results, stats = Campaign.run_jobs ?domains ?trace jobs in
  let rows =
    List.map2
      (fun (w, p) r -> Ptaint_workloads.Workload.row_of w p (Campaign.result_exn r))
      prepared results
  in
  let kb n = Printf.sprintf "%.1fKB" (float_of_int n /. 1024.) in
  buf_add buf
    (Ptaint_report.Report.table
       ~headers:[ "workload"; "program size"; "input bytes"; "instructions"; "alerts"; "self-check" ]
       (List.map
          (fun (r : Ptaint_workloads.Workload.row) ->
            [ r.Ptaint_workloads.Workload.workload.Ptaint_workloads.Workload.name;
              kb r.Ptaint_workloads.Workload.program_bytes;
              kb r.Ptaint_workloads.Workload.input_bytes;
              Ptaint_report.Report.commas r.Ptaint_workloads.Workload.instructions;
              string_of_int r.Ptaint_workloads.Workload.alerts;
              (match r.Ptaint_workloads.Workload.outcome with
               | Ptaint_sim.Sim.Exited 0 -> "OK"
               | o -> Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome o) ])
          rows));
  let total_prog = List.fold_left (fun a r -> a + r.Ptaint_workloads.Workload.program_bytes) 0 rows in
  let total_in = List.fold_left (fun a r -> a + r.Ptaint_workloads.Workload.input_bytes) 0 rows in
  let total_insn = List.fold_left (fun a r -> a + r.Ptaint_workloads.Workload.instructions) 0 rows in
  let total_alerts = List.fold_left (fun a r -> a + r.Ptaint_workloads.Workload.alerts) 0 rows in
  buf_add buf
    (Printf.sprintf
       "\nTotals: %s program bytes, %s input bytes, %s instructions, %d alerts.\n\
        As in the paper (6,586KB / 2,186KB / 15,139M instructions / 0 alerts), every\n\
        byte of input is tainted on entry and no alert is ever raised.\n"
       (kb total_prog) (kb total_in)
       (Ptaint_report.Report.commas total_insn)
       total_alerts);
  buf_add buf (Format.asprintf "\n%a\n" Campaign.pp_stats stats);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table 4                                                             *)

let run_fn ?(policy = Ptaint_cpu.Policy.default) source config =
  let program = Ptaint_runtime.Runtime.compile source in
  Ptaint_sim.Sim.run ~config:{ config with Ptaint_sim.Sim.policy } program

let tab4 ?domains ?trace () =
  let buf = Buffer.create 4096 in
  buf_add buf (Ptaint_report.Report.section "Table 4: false-negative scenarios");
  (* (A) integer overflow: `admin` is emitted immediately before
     `array`, so the out-of-range store needs index -1.  (B) auth
     flag: one byte past the buffer sets the flag's low byte; gets()'s
     terminating NUL then lands inside `auth`, never reaching the
     saved frame pointer.  (C) info leak: reads need no tainted
     dereference.  All five runs go out as one campaign batch. *)
  let int_ovf = Ptaint_runtime.Runtime.compile Ptaint_apps.Synthetic.fn_integer_overflow in
  let auth = Ptaint_runtime.Runtime.compile Ptaint_apps.Synthetic.fn_auth_flag in
  let leak = Ptaint_runtime.Runtime.compile Ptaint_apps.Synthetic.fn_info_leak in
  let admin_index = -1 in
  let a_input = Payload.le_word (Ptaint_isa.Word.of_signed admin_index) in
  let b_payload = Payload.fill 16 ^ "\x01" ^ "\n" in
  let jobs =
    [ Job.make ~tag:"tab4/A integer overflow"
        ~config:{ Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.stdin = a_input }
        (Job.Image int_ovf);
      Job.make ~tag:"tab4/A benign index"
        ~config:{ Ptaint_sim.Sim.default_config with
                  Ptaint_sim.Sim.stdin = Payload.le_word 2 }
        (Job.Image int_ovf);
      Job.make ~tag:"tab4/B auth flag"
        ~config:{ Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.stdin = b_payload }
        (Job.Image auth);
      Job.make ~tag:"tab4/C info leak"
        ~config:{ Ptaint_sim.Sim.default_config with
                  Ptaint_sim.Sim.sessions = [ [ "%x%x%x%x" ] ] }
        (Job.Image leak);
      Job.make ~tag:"tab4/C write contrast"
        ~config:{ Ptaint_sim.Sim.default_config with
                  Ptaint_sim.Sim.sessions = [ [ "abcd%x%x%x%n" ] ] }
        (Job.Image leak) ]
  in
  let results, _ = Campaign.run_jobs ?domains ?trace jobs in
  (match List.map Campaign.result_exn results with
   | [ r_a; r_a_benign; r_b; r_c; r_c_n ] ->
     buf_add buf
       (Printf.sprintf
          "(A) integer overflow, flawed upper-bound-only check\n\
          \    input: unsigned index 0x%08x (= -1 signed)\n\
          \    outcome: %s; guest output: %s\n\
          \    -> the bounds compare untaints the index, the negative-index store\n\
          \       corrupts `admin`, and no alert fires: a false negative, as in the paper.\n\n"
          (Ptaint_isa.Word.of_signed admin_index)
          (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome r_a.Ptaint_sim.Sim.outcome)
          (String.escaped r_a.Ptaint_sim.Sim.stdout));
     buf_add buf
       (Printf.sprintf "(A, benign) in-range index 2: %s / %s\n\n"
          (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome r_a_benign.Ptaint_sim.Sim.outcome)
          (String.escaped r_a_benign.Ptaint_sim.Sim.stdout));
     buf_add buf
       (Printf.sprintf
          "(B) buffer overflow corrupting the authentication flag\n\
          \    input: 16 filler bytes + 0x01 over `auth`\n\
          \    outcome: %s; guest output: %s\n\
          \    -> no pointer was tainted; access granted without the password: false negative.\n\n"
          (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome r_b.Ptaint_sim.Sim.outcome)
          (String.escaped r_b.Ptaint_sim.Sim.stdout));
     let leaked =
       List.exists
         (fun m ->
           let rec has i =
             i + 8 <= String.length m && (String.sub m i 8 = "12345678" || has (i + 1))
           in
           has 0)
         r_c.Ptaint_sim.Sim.net_sent
     in
     buf_add buf
       (Printf.sprintf
          "(C) format-string information leak (%%x%%x%%x%%x)\n\
          \    outcome: %s; secret 0x12345678 leaked to the client: %b\n\
          \    -> reads need no tainted dereference, so the leak is invisible: false negative.\n"
          (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome r_c.Ptaint_sim.Sim.outcome)
          leaked);
     buf_add buf
       (Printf.sprintf
          "(C, contrast) the same bug driven with %%n: %s\n\
          \    -> the moment the attack tries to WRITE, the tainted dereference is caught.\n"
          (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome r_c_n.Ptaint_sim.Sim.outcome))
   | _ -> invalid_arg "tab4: unexpected campaign shape");
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Overhead                                                            *)

let overhead () =
  let buf = Buffer.create 4096 in
  buf_add buf (Ptaint_report.Report.section "Section 5.4: architectural overhead");
  buf_add buf
    "Area: one taintedness bit per byte = 12.5% extra storage in memory, caches,\n\
     registers and datapath latches.  Performance: taint propagation is an OR\n\
     beside each ALU/copy operation and each detector is a 4-input OR — nothing\n\
     joins the critical path, so no pipeline stage or extra cycle is added.\n\n";
  buf_add buf "Pipeline-model runs (taint hardware active vs. tracking disabled):\n\n";
  let rows =
    List.map
      (fun w ->
        let p = Ptaint_workloads.Workload.program w in
        let run policy =
          let config =
            { Ptaint_sim.Sim.default_config with
              Ptaint_sim.Sim.policy;
              stdin = w.Ptaint_workloads.Workload.input ();
              timing = true }
          in
          Ptaint_sim.Sim.run ~config p
        in
        let on = run Ptaint_cpu.Policy.default in
        let off = run Ptaint_cpu.Policy.baseline_no_tracking in
        let cyc r = Option.value ~default:0 r.Ptaint_sim.Sim.cycles in
        [ w.Ptaint_workloads.Workload.name;
          Ptaint_report.Report.commas on.Ptaint_sim.Sim.instructions;
          Ptaint_report.Report.commas (cyc on);
          Ptaint_report.Report.commas (cyc off);
          Printf.sprintf "%+.2f%%"
            (100. *. (float_of_int (cyc on) -. float_of_int (cyc off)) /. float_of_int (max 1 (cyc off))) ])
      [ Ptaint_workloads.Workload.gcc; Ptaint_workloads.Workload.mcf; Ptaint_workloads.Workload.parser ]
  in
  buf_add buf
    (Ptaint_report.Report.table
       ~headers:[ "workload"; "instructions"; "cycles (taint on)"; "cycles (taint off)"; "delta" ]
       rows);
  buf_add buf "\nSoftware (kernel tainting) overhead, one instruction per tainted input byte:\n\n";
  let rows =
    List.map
      (fun w ->
        let r = Ptaint_workloads.Workload.run w in
        [ w.Ptaint_workloads.Workload.name;
          Ptaint_report.Report.commas r.Ptaint_workloads.Workload.input_bytes;
          Ptaint_report.Report.commas r.Ptaint_workloads.Workload.instructions;
          Printf.sprintf "%.4f%%"
            (100. *. float_of_int r.Ptaint_workloads.Workload.input_bytes
             /. float_of_int (max 1 r.Ptaint_workloads.Workload.instructions)) ])
      Ptaint_workloads.Workload.all
  in
  buf_add buf
    (Ptaint_report.Report.table
       ~headers:[ "workload"; "input bytes"; "instructions"; "added instructions" ]
       rows);
  buf_add buf "\nThe paper reports 0.002%-0.2% for SPEC2000; the shape holds here.\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Ablation                                                            *)

let ablation () =
  let buf = Buffer.create 4096 in
  buf_add buf (Ptaint_report.Report.section "Ablation: what each design choice buys");
  (* 1. compare-untaint rule off: workloads false-positive. *)
  buf_add buf "1. Hardware compare-untaint rule (Table 1, rule 4) disabled:\n\n";
  let no_compare = { Ptaint_cpu.Policy.default with Ptaint_cpu.Policy.compare_untaints = false } in
  let rows =
    List.map
      (fun w ->
        let r = Ptaint_workloads.Workload.run ~policy:no_compare w in
        [ w.Ptaint_workloads.Workload.name;
          Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome r.Ptaint_workloads.Workload.outcome ])
      Ptaint_workloads.Workload.all
  in
  buf_add buf (Ptaint_report.Report.table ~headers:[ "workload"; "outcome without rule 4" ] rows);
  buf_add buf
    "\n   Validated input (array indices, parsed lengths) stays tainted, so normal\n\
     computation trips the detectors: the rule is what makes the zero-false-positive\n\
     property of Table 3 possible.  The price is Table 4(A): validation also launders\n\
     genuinely dangerous values.\n\n";
  (* flip side: Table 4(A) becomes detected *)
  let a_input = Payload.le_word (Ptaint_isa.Word.of_signed (-1)) in
  let r = run_fn ~policy:no_compare Ptaint_apps.Synthetic.fn_integer_overflow
      { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.stdin = a_input } in
  buf_add buf
    (Printf.sprintf "   Table 4(A) integer-overflow attack without rule 4: %s\n\n"
       (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome r.Ptaint_sim.Sim.outcome));
  (* 2. compiler write-back off *)
  buf_add buf
    "2. Register-residency write-back (compiler) disabled — models an -O0 binary\n\
     where every use reloads the unlaundered memory copy:\n\n";
  let rows =
    List.map
      (fun w ->
        let r = Ptaint_workloads.Workload.run ~untaint_writeback:false w in
        [ w.Ptaint_workloads.Workload.name;
          Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome r.Ptaint_workloads.Workload.outcome ])
      Ptaint_workloads.Workload.all
  in
  buf_add buf (Ptaint_report.Report.table ~headers:[ "workload"; "outcome (-O0 style)" ] rows);
  buf_add buf
    "\n   The paper evaluated optimised SPEC binaries; the transparency claim\n\
     quietly depends on compilers keeping validated values in registers.\n\n";
  (* 3. detection still intact with rule 4 on *)
  buf_add buf "3. All attacks remain detected with the full configuration:\n\n";
  let detected =
    List.for_all
      (fun s -> match Scenario.run s with Scenario.Detected _, _ -> true | _ -> false)
      Catalog.all
  in
  buf_add buf (Printf.sprintf "   all %d catalogued attacks detected: %b\n" (List.length Catalog.all) detected);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Section 5.3 extension: annotation guards                            *)

let extension () =
  let buf = Buffer.create 2048 in
  buf_add buf
    (Ptaint_report.Report.section
       "Section 5.3 extension: annotating data that must never be tainted");
  buf_add buf
    "The paper proposes reducing false negatives by letting the programmer\n\
     annotate critical structures; the hardware then alerts when an annotated\n\
     structure becomes tainted.  Implemented here as guard()/unguard() syscalls\n\
     backed by a Guarded_store detector.\n\n";
  let payload = Payload.fill 16 ^ "\x01" ^ "\n" in
  let r =
    run_fn Ptaint_apps.Synthetic.fn_auth_flag
      { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.stdin = payload }
  in
  buf_add buf
    (Printf.sprintf "Table 4(B) victim, unannotated:  %s (output: %s)\n"
       (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome r.Ptaint_sim.Sim.outcome)
       (String.escaped (String.trim r.Ptaint_sim.Sim.stdout)));
  let r =
    run_fn Ptaint_apps.Synthetic.fn_auth_flag_guarded
      { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.stdin = payload }
  in
  buf_add buf
    (Printf.sprintf "Same victim with guard(&auth,4): %s\n"
       (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome r.Ptaint_sim.Sim.outcome));
  let r =
    run_fn Ptaint_apps.Synthetic.fn_auth_flag_guarded
      { Ptaint_sim.Sim.default_config with Ptaint_sim.Sim.stdin = "secret\n" }
  in
  buf_add buf
    (Printf.sprintf "Annotated victim, honest login:  %s (output: %s)\n"
       (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome r.Ptaint_sim.Sim.outcome)
       (String.escaped (String.trim r.Ptaint_sim.Sim.stdout)));
  buf_add buf
    "\nThe annotation converts the (B) false negative into a detection while\n\
     staying silent for legitimate use — at the price of transparency, exactly\n\
     the trade-off the paper describes.\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Resilience: fault injection into the detection mechanism            *)

module Fi = Ptaint_fi.Fi

(* One fault-injection trial: a plan against one (scenario, case,
   policy) cell, classified against the fault-free baseline run. *)
type fi_trial = {
  t_name : string;
  t_model : string;
  t_policy : string;
  t_malicious : bool;
  t_plan : Fi.injection list;
  t_config : Ptaint_sim.Sim.config;
  t_program : Ptaint_asm.Program.t;
  t_base : Ptaint_sim.Sim.result;
}

let fi_fingerprint (r : Ptaint_sim.Sim.result) =
  Printf.sprintf "%s|%s|%d|%s|%s"
    (Format.asprintf "%a" Ptaint_sim.Sim.pp_outcome r.Ptaint_sim.Sim.outcome)
    (String.escaped r.Ptaint_sim.Sim.stdout)
    r.Ptaint_sim.Sim.final_uid
    (String.concat "," r.Ptaint_sim.Sim.execs)
    (String.escaped (String.concat "&" r.Ptaint_sim.Sim.net_sent))

(* detected / false-negative / silent / fail-stop / wedged for attack
   trials; false-positive / silent / fail-stop / unaffected for benign
   ones.  A false negative is an attack the fault-free detector caught
   and the faulted one did not — however the undetected run ends. *)
let fi_classify t (r : Ptaint_sim.Sim.result) =
  let alerted = Ptaint_sim.Sim.detected r in
  let exited = match r.Ptaint_sim.Sim.outcome with Ptaint_sim.Sim.Exited _ -> true | _ -> false in
  if t.t_malicious then
    if alerted then "detected"
    else if not (Ptaint_sim.Sim.detected t.t_base) then "no-change"
    else if exited then "silent"
    else (match r.Ptaint_sim.Sim.outcome with
          | Ptaint_sim.Sim.Out_of_fuel -> "wedged"
          | _ -> "fail-stop")
  else if alerted then "false-positive"
  else if fi_fingerprint r = fi_fingerprint t.t_base then "unaffected"
  else if exited then "silent"
  else "fail-stop"

let resilience ?domains ?trace () =
  let seed = 42 in
  let buf = Buffer.create 8192 in
  buf_add buf
    (Ptaint_report.Report.section
       "Resilience: fault injection into the taintedness mechanism itself");
  buf_add buf
    (Printf.sprintf
       "Seeded (%d), deterministic: plans are pure functions of the seed and all\n\
        schedules are in guest instruction counts, so this report is byte-identical\n\
        at any -j.  Models: data-flip (classic memory corruption), taint-wipe /\n\
        reg-taint-loss / stuck-clean (the detector disarmed: false-negative\n\
        direction), spurious-taint (the detector over-armed: false-positive\n\
        direction).\n\n" seed);
  let policies =
    [ ("pointer taintedness", Ptaint_cpu.Policy.default);
      ("control-data only", Ptaint_cpu.Policy.control_only) ]
  in
  (* -------- phase 1: fault-free baselines, one campaign -------- *)
  let cells =
    List.concat_map
      (fun (s : Scenario.t) ->
        let program = s.Scenario.build () in
        let atk = Scenario.attack s in
        List.map
          (fun (pname, policy) ->
            ( s, program, atk, pname,
              { (atk.Scenario.config program) with Ptaint_sim.Sim.policy }, true ))
          policies
        @
        match Scenario.benign s with
        | None -> []
        | Some c ->
          [ ( s, program, c, "pointer taintedness",
              { (c.Scenario.config program) with
                Ptaint_sim.Sim.policy = Ptaint_cpu.Policy.default }, false ) ])
      Catalog.all
  in
  let baseline_jobs =
    List.map
      (fun ((s : Scenario.t), program, (case : Scenario.case), pname, config, _) ->
        Job.make
          ~tag:(Printf.sprintf "base/%s/%s/%s" s.Scenario.name case.Scenario.case_name pname)
          ~policy_label:pname ~config (Job.Image program))
      cells
  in
  let baseline_results, _ = Campaign.run_jobs ?domains ?trace baseline_jobs in
  let baselines = List.map2 (fun c r -> (c, Campaign.result_exn r)) cells baseline_results in
  (* -------- phase 2: seeded injection plans -------- *)
  let trials =
    List.concat_map
      (fun (((s : Scenario.t), program, _case, pname, config, malicious), base) ->
        let insns = max 2 base.Ptaint_sim.Sim.instructions in
        let dbase = program.Ptaint_asm.Program.data_base in
        let dlen = max (String.length program.Ptaint_asm.Program.data) 16 in
        let mk model i plan =
          { t_name = Printf.sprintf "fi/%s/%s/%s/%d" s.Scenario.name model pname i;
            t_model = model; t_policy = pname; t_malicious = malicious;
            t_plan = plan; t_config = config; t_program = program; t_base = base }
        in
        if malicious then begin
          let rng tag i = Fi.Rng.create (seed lxor Hashtbl.hash (s.Scenario.name, pname, tag, i)) in
          List.init 2 (fun i ->
              let g = rng "data-flip" i in
              let at = 1 + Fi.Rng.int g (insns - 1) in
              let addr = dbase + Fi.Rng.int g dlen in
              let bit = Fi.Rng.int g 8 in
              mk "data-flip" i [ { Fi.at; fault = Fi.Flip_data { addr; bit } } ])
          @ List.init 2 (fun i ->
                let g = rng "reg-taint-loss" i in
                let at = 1 + Fi.Rng.int g (insns - 1) in
                let slot = 1 + Fi.Rng.int g 31 in
                mk "reg-taint-loss" i [ { Fi.at; fault = Fi.Reg_taint_loss { slot } } ])
          @ [ (* directed: wipe all taint state just before the baseline
                 alert point — the guaranteed false negative when the
                 fault-free detector fires *)
              (let at =
                 if Ptaint_sim.Sim.detected base then
                   max 1 (base.Ptaint_sim.Sim.instructions - 1)
                 else max 1 (insns / 2)
               in
               mk "taint-wipe" 0 [ { Fi.at; fault = Fi.Taint_wipe } ]);
              (* taint RAM stuck at clean over the data segment and the
                 active stack window, from the first instruction on *)
              mk "stuck-clean" 0
                [ { Fi.at = 1; fault = Fi.Stuck_clean { addr = dbase; len = dlen } };
                  { Fi.at = 1;
                    fault =
                      Fi.Stuck_clean
                        { addr = Ptaint_mem.Layout.stack_top - 16384; len = 16384 } } ] ]
        end
        else
          (* benign run: spurious taint on the stack/frame registers and
             a data-segment window at the midpoint — the false-positive
             direction *)
          let at = max 1 (insns / 2) in
          [ mk "spurious-taint" 0
              [ { Fi.at; fault = Fi.Spurious_taint { addr = dbase; len = min dlen 64 } };
                { Fi.at; fault = Fi.Reg_spurious_taint { slot = 29 } };
                { Fi.at; fault = Fi.Reg_spurious_taint { slot = 31 } } ] ])
      baselines
  in
  let trial_jobs =
    List.map
      (fun t ->
        Job.make ~tag:t.t_name ~policy_label:t.t_policy ~config:t.t_config
          ~injections:t.t_plan (Job.Image t.t_program))
      trials
  in
  let trial_results, trial_stats = Campaign.run_jobs ?domains ?trace trial_jobs in
  (* -------- aggregate per model x policy -------- *)
  let outcomes =
    List.map2 (fun t r -> (t, fi_classify t (Campaign.result_exn r), Campaign.result_exn r))
      trials trial_results
  in
  let keys =
    List.fold_left
      (fun acc (t, _, _) ->
        if List.mem (t.t_model, t.t_policy) acc then acc else acc @ [ (t.t_model, t.t_policy) ])
      [] outcomes
  in
  let rows =
    List.map
      (fun (model, policy) ->
        let mine = List.filter (fun (t, _, _) -> t.t_model = model && t.t_policy = policy) outcomes in
        let count v = List.length (List.filter (fun (_, c, _) -> c = v) mine) in
        let latencies =
          List.filter_map
            (fun (t, c, (r : Ptaint_sim.Sim.result)) ->
              if c = "detected" || c = "false-positive" then
                let first =
                  List.fold_left (fun a (i : Fi.injection) -> min a i.Fi.at) max_int t.t_plan
                in
                Some (max 0 (r.Ptaint_sim.Sim.instructions - first))
              else None)
            mine
        in
        let mean_latency =
          match latencies with
          | [] -> "-"
          | l -> string_of_int (List.fold_left ( + ) 0 l / List.length l)
        in
        [ model; policy; string_of_int (List.length mine); string_of_int (count "detected");
          string_of_int (count "false-negative" + count "silent" + count "fail-stop"
                         + count "wedged");
          string_of_int (count "false-positive"); string_of_int (count "silent");
          string_of_int (count "unaffected" + count "no-change" + count "masked");
          mean_latency ])
      keys
  in
  buf_add buf
    (Ptaint_report.Report.table
       ~headers:[ "fault model"; "policy"; "trials"; "detected"; "FN"; "FP"; "silent";
                  "unaffected"; "latency (insns)" ]
       rows);
  let total v = List.length (List.filter (fun (_, c, _) -> c = v) outcomes) in
  let fn_under t_models =
    List.length
      (List.filter
         (fun (t, c, _) ->
           List.mem t.t_model t_models && Ptaint_sim.Sim.detected t.t_base && t.t_malicious
           && c <> "detected" && c <> "wedged")
         outcomes)
  in
  buf_add buf
    (Printf.sprintf
       "\nFN under taint-loss models (taint-wipe/reg-taint-loss/stuck-clean): %d\n\
        FP under spurious taint: %d\n\
        silent corruptions (run completes, observable state differs, no alert): %d\n\
        harness failures during %d trials: %d\n"
       (fn_under [ "taint-wipe"; "reg-taint-loss"; "stuck-clean" ])
       (total "false-positive") (total "silent") trial_stats.Campaign.jobs
       trial_stats.Campaign.failed);
  buf_add buf "\ntrial campaign metrics by policy:\n\n";
  buf_add buf (Campaign.metrics_table trial_stats);
  (* -------- hostile-job campaign: the hardened runtime -------- *)
  buf_add buf "\nHostile-job campaign (watchdog, retries, typed failures):\n\n";
  let benign_cfg program =
    match Scenario.benign Catalog.exp1_stack_smash with
    | Some c -> c.Scenario.config program
    | None -> invalid_arg "exp1 has no benign case"
  in
  let exp1 = Catalog.exp1_stack_smash.Scenario.build () in
  let spin =
    Ptaint_asm.Assembler.assemble_exn ".text\nmain: j main\n"
  in
  let bad_syscall =
    Ptaint_asm.Assembler.assemble_exn ".text\nmain: li $v0, 999\n      syscall\n"
  in
  (* every hostile row is an ordinary Job.t: the crash is an [on_step]
     hook that raises, the malformed program a source that fails to
     assemble on the worker *)
  let job ?(config = Ptaint_sim.Sim.default_config) tag program =
    Job.make ~tag ~config (Job.Image program)
  in
  let hostile_jobs =
    [ job "well-behaved" ~config:(benign_cfg exp1) exp1;
      job "spinning guest (watchdog)"
        ~config:{ Ptaint_sim.Sim.default_config with
                  Ptaint_sim.Sim.max_instructions = 1_000_000_000 }
        spin;
      job "crashing harness thunk (retried)"
        ~config:
          { Ptaint_sim.Sim.default_config with
            Ptaint_sim.Sim.on_step = Some (fun _ _ -> failwith "synthetic harness crash") }
        exp1;
      job "oversized argv (loader)"
        ~config:{ Ptaint_sim.Sim.default_config with
                  Ptaint_sim.Sim.argv = [ "prog"; String.make 2_000_000 'A' ] }
        exp1;
      Job.make ~tag:"malformed assembly (loader)" (Job.Asm_source ".data\nx: .space -4\n");
      job "unknown syscall (guest fault)" bad_syscall;
      job "well-behaved neighbour" ~config:(benign_cfg exp1) exp1 ]
  in
  let hresults, hstats =
    Campaign.run_jobs ?domains ?trace ~job_timeout:0.5 ~retries:1 ~backoff:0.01 hostile_jobs
  in
  buf_add buf
    (Ptaint_report.Report.table ~headers:[ "job"; "outcome"; "attempts" ]
       (List.map
          (fun (r : Campaign.job_result) ->
            [ r.Campaign.name; Campaign.outcome_name r; string_of_int r.Campaign.attempts ])
          hresults));
  buf_add buf
    (Printf.sprintf
       "\nAll %d jobs accounted for; pool and worker domains survived every failure\n\
        mode (timeout, harness crash with retry, loader errors, guest fault).\n"
       hstats.Campaign.jobs);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Generative campaign: seeded program/attack synthesis                *)

let generative ?domains () =
  let seed = 42 and cases = 60 and variants = 6 in
  let module Gen = Ptaint_gen.Gen in
  let np = List.length Gen.default_policy_labels in
  let spec = Gen.spec ~variants ~seed ~jobs:(cases * np) () in
  let buf = Buffer.create 4096 in
  buf_add buf
    (Ptaint_report.Report.section "Generative campaign: seeded program/attack synthesis");
  buf_add buf
    (Printf.sprintf
       "Every job is a pure function of (seed=%d, index): %d cases x %d policies,\n\
        drawn from a pool of %d program variants (exp1-family stack smash with\n\
        generated buffer sizes and helper functions) with benign / frame-pointer /\n\
        return-address payloads.  Streamed through the arena-recycling campaign\n\
        engine; byte-identical at any -j.\n\n"
       seed cases np variants);
  (* Per-case policy-disagreement fold: [on_result] fires in
     submission order and one case's policy sweep is adjacent in the
     stream, so a [np]-slot window suffices. *)
  let disagreements = ref 0 in
  let window = ref [] in
  let close_case () =
    (match !window with
     | [] -> ()
     | flags -> (
       match List.sort_uniq compare flags with
       | [ _ ] -> ()
       | _ -> incr disagreements));
    window := []
  in
  let tally, _cursor =
    Campaign.run_stream ?domains
      ~on_result:(fun s ->
        if s.Campaign.s_index mod np = 0 then close_case ();
        window := s.Campaign.s_detected :: !window)
      (Gen.jobs spec)
  in
  close_case ();
  let stats = Campaign.tally_stats tally in
  let sites = Campaign.tally_sites tally in
  buf_add buf
    (Ptaint_report.Report.kv
       ([ ("jobs", string_of_int stats.Campaign.jobs);
          ("failed (crashed guests)", string_of_int stats.Campaign.failed);
          ("cases", string_of_int cases);
          ("policy disagreement", Printf.sprintf "%d cases (%.1f%%)" !disagreements
             (100. *. float_of_int !disagreements /. float_of_int (max 1 cases)));
          ("distinct detection sites", string_of_int (List.length sites)) ]
        @ List.map
            (fun (label, n) -> ("detections [" ^ label ^ "]", string_of_int n))
            stats.Campaign.detections));
  buf_add buf "\ncampaign metrics by policy:\n\n";
  buf_add buf (Campaign.metrics_table stats);
  buf_add buf
    "\nDisagreement cases are the coverage signal: inputs where pointer\n\
     taintedness and the control-data-only baseline reach different verdicts\n\
     (typically frame-pointer clobbers and corruptions that fault before any\n\
     control transfer).\n";
  Buffer.contents buf

let all ?domains ?trace () =
  String.concat "\n"
    [ fig1 (); tab1 (); fig2 (); fig3 (); synthetic (); tab2 (); real_world ();
      coverage ?domains ?trace (); tab3 ?domains ?trace (); tab4 ?domains ?trace ();
      overhead (); ablation (); extension (); resilience ?domains ?trace ();
      generative ?domains () ]
