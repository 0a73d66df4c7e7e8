(* The fault-injection engine: injections must land through the
   counter-exact entry points (invariants audited after every one),
   plans must be deterministic at any -j, fuel-slicing must be
   observationally invisible, and the directed fault models must
   actually move the detector — taint loss produces measured false
   negatives, spurious taint produces false positives. *)

open Ptaint_attacks
module Sim = Ptaint_sim.Sim
module Fi = Ptaint_fi.Fi
module Campaign = Ptaint_campaign.Campaign
module Memory = Ptaint_mem.Memory
module Machine = Ptaint_cpu.Machine

(* every test in this binary audits the store after each injection *)
let () =
  Fi.debug_checks := true;
  Ptaint_mem.Tagged_store.debug_asserts := true

let exp1 = Catalog.exp1_stack_smash

let attack_config program = (Scenario.attack exp1).Scenario.config program

let benign_config program =
  match Scenario.benign exp1 with
  | Some c -> c.Scenario.config program
  | None -> Alcotest.fail "exp1 should have a benign case"

let fingerprint (r : Sim.result) =
  Printf.sprintf "%s | out:%s | %d insns | %d sys | uid %d"
    (Format.asprintf "%a" Sim.pp_outcome r.Sim.outcome)
    (String.escaped r.Sim.stdout) r.Sim.instructions r.Sim.syscalls r.Sim.final_uid

(* --- every fault model lands and keeps the stores coherent --- *)

let test_apply_models () =
  let program = exp1.Scenario.build () in
  let s = Sim.boot ~config:(attack_config program) program in
  let m = s.Sim.s_machine in
  (match Sim.run_until s ~icount:50 with
   | Sim.Running -> ()
   | Sim.Finished _ -> Alcotest.fail "exp1 should run past 50 instructions");
  let mem = m.Machine.mem in
  let dbase = program.Ptaint_asm.Program.data_base in
  let check_ok name fault =
    Alcotest.(check bool) (name ^ " lands") true (Fi.apply m fault);
    (* Fi.debug_checks already audited; audit once more explicitly *)
    Memory.check_invariants mem
  in
  check_ok "data flip" (Fi.Flip_data { addr = dbase; bit = 3 });
  check_ok "reg flip" (Fi.Flip_reg { slot = 8; bit = 7 });
  check_ok "spurious taint" (Fi.Spurious_taint { addr = dbase; len = 64 });
  Alcotest.(check bool) "spurious taint raised the tainted-byte count" true
    (Memory.tainted_bytes mem >= 64);
  check_ok "taint loss" (Fi.Taint_loss { addr = dbase; len = 64 });
  check_ok "reg spurious taint" (Fi.Reg_spurious_taint { slot = 29 });
  check_ok "reg taint loss" (Fi.Reg_taint_loss { slot = 29 });
  check_ok "stuck clean" (Fi.Stuck_clean { addr = dbase; len = 64 });
  check_ok "taint wipe" Fi.Taint_wipe;
  Alcotest.(check int) "taint wipe leaves no tainted byte" 0 (Memory.tainted_bytes mem);
  (* a fault aimed at unmapped memory is reported, never raised *)
  Alcotest.(check bool) "unmapped injection misses" false
    (Fi.apply m (Fi.Flip_data { addr = 0x00000004; bit = 0 }))

(* --- slicing parity: a zero-injection sliced run is the plain run --- *)

let test_slice_parity () =
  let program = exp1.Scenario.build () in
  List.iter
    (fun (name, config) ->
      let plain = Sim.run ~config program in
      let sliced =
        Sim.finish_sliced ~deadline:(Unix.gettimeofday () +. 3600.) ~slice:257
          (Sim.boot ~config program)
      in
      Alcotest.(check string) (name ^ ": sliced = plain") (fingerprint plain)
        (fingerprint sliced);
      let planned = Fi.run_plan ~config ~slice:257 ~plan:[] program in
      Alcotest.(check string) (name ^ ": empty plan = plain") (fingerprint plain)
        (fingerprint planned.Fi.result))
    [ ("block engine, attack", attack_config program);
      ("block engine, benign", benign_config program);
      (* a present on_step hook routes through the per-step engine *)
      ( "per-step engine, attack",
        { (attack_config program) with Sim.on_step = Some (fun _ _ -> ()) } );
      ( "per-step engine, benign",
        { (benign_config program) with Sim.on_step = Some (fun _ _ -> ()) } ) ];
  (* and the parallel batch API agrees with the sliced singles *)
  let configs = [ attack_config program; benign_config program ] in
  let batch = Sim.run_many ~domains:2 (List.map (fun c -> (c, program)) configs) in
  List.iter2
    (fun config (many : Sim.result) ->
      let sliced =
        Sim.finish_sliced ~deadline:(Unix.gettimeofday () +. 3600.) ~slice:257
          (Sim.boot ~config program)
      in
      Alcotest.(check string) "run_many = sliced single" (fingerprint many)
        (fingerprint sliced))
    configs batch

let test_watchdog_fires () =
  let spin = Ptaint_asm.Assembler.assemble_exn ".text\nmain: j main\n" in
  let config = Sim.Config.(default |> with_max_instructions 1_000_000_000) in
  match
    Sim.finish_sliced ~deadline:(Unix.gettimeofday () +. 0.2) (Sim.boot ~config spin)
  with
  | _ -> Alcotest.fail "spinning guest must hit the watchdog"
  | exception Sim.Timeout { instructions } ->
    Alcotest.(check bool) "made progress before the deadline" true (instructions > 0)

(* --- run_until lands exactly inside promoted superblocks --- *)

(* A hot nested loop whose blocks all get promoted and chained by the
   translation tier.  Pausing at arbitrary icounts — including ones
   that fall in the middle of a fused block — must park the machine at
   exactly that instruction, accept an injection there, and resume
   bit-identically to the per-step engine doing the same dance. *)
let hot_loop_asm =
  {|
        .text
main:   li $t0, 100
outer:  li $t1, 50
inner:  addiu $t1, $t1, -1
        addu $t2, $t2, $t0
        bne $t1, $zero, inner
        addiu $t0, $t0, -1
        bgtz $t0, outer
        li $v0, 1
        li $a0, 0
        syscall
|}

let test_superblock_slice_exact () =
  let program = Ptaint_asm.Assembler.assemble_exn hot_loop_asm in
  (* pauses chosen to land at different offsets inside the fused
     3-instruction inner block, long after promotion (threshold 16) *)
  let pauses = [ 1000; 5003; 5004; 7919; 12000 ] in
  let drive config =
    let s = Sim.boot ~config program in
    let m = s.Sim.s_machine in
    let at =
      List.map
        (fun n ->
          match Sim.run_until s ~icount:n with
          | Sim.Running ->
            Alcotest.(check int) (Printf.sprintf "paused at exactly %d" n) n
              m.Machine.icount;
            (* mutate state mid-chain: the resumed run must honor it *)
            Alcotest.(check bool) "injection lands mid-chain" true
              (Fi.apply m (Fi.Flip_reg { slot = 10; bit = 2 }));
            (m.Machine.pc, m.Machine.icount)
          | Sim.Finished _ -> Alcotest.failf "finished before icount %d" n)
        pauses
    in
    let r = Sim.finish s in
    let regs =
      List.init Ptaint_cpu.Regfile.slots (fun i ->
          Ptaint_taint.Tword.to_bits (Ptaint_cpu.Regfile.slot m.Machine.regs i))
    in
    (at, fingerprint r, regs, m)
  in
  let at_b, fp_b, regs_b, mb = drive Sim.default_config in
  let at_s, fp_s, regs_s, _ =
    drive { Sim.default_config with Sim.on_step = Some (fun _ _ -> ()) }
  in
  List.iteri
    (fun i ((pc_b, ic_b), (pc_s, ic_s)) ->
      Alcotest.(check int) (Printf.sprintf "pause %d: same pc" i) pc_s pc_b;
      Alcotest.(check int) (Printf.sprintf "pause %d: same icount" i) ic_s ic_b)
    (List.combine at_b at_s);
  Alcotest.(check string) "resumed run = per-step run" fp_s fp_b;
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "register slot %d differs — bulk %x, per-step %x" i b a)
    (List.combine regs_b regs_s);
  (* and the bulk run really was executing translated chains *)
  Alcotest.(check bool) "blocks were promoted" true (mb.Machine.sb_promoted > 0);
  Alcotest.(check bool) "chains linked up" true (mb.Machine.chain_hits > 0)

(* --- directed faults move the detector the way the taxonomy says --- *)

let test_taint_wipe_false_negative () =
  let program = exp1.Scenario.build () in
  let config = attack_config program in
  let baseline = Sim.run ~config program in
  Alcotest.(check bool) "baseline detects the attack" true (Sim.detected baseline);
  let at = max 1 (baseline.Sim.instructions - 1) in
  let report = Fi.run_plan ~config ~plan:[ { Fi.at; fault = Fi.Taint_wipe } ] program in
  (match report.Fi.applied with
   | [ { Fi.ok; _ } ] -> Alcotest.(check bool) "wipe landed" true ok
   | _ -> Alcotest.fail "expected one applied record");
  Alcotest.(check bool) "taint wipe defeats detection (false negative)" false
    (Sim.detected report.Fi.result)

let test_spurious_taint_false_positive () =
  let program = exp1.Scenario.build () in
  let config = benign_config program in
  let baseline = Sim.run ~config program in
  Alcotest.(check bool) "benign baseline raises no alert" false (Sim.detected baseline);
  let at = max 1 (baseline.Sim.instructions / 2) in
  let plan =
    [ { Fi.at; fault = Fi.Spurious_taint { addr = program.Ptaint_asm.Program.data_base; len = 64 } };
      { Fi.at; fault = Fi.Reg_spurious_taint { slot = 29 } };
      { Fi.at; fault = Fi.Reg_spurious_taint { slot = 31 } } ]
  in
  let report = Fi.run_plan ~config ~plan program in
  Alcotest.(check bool) "spurious taint triggers a false positive" true
    (Sim.detected report.Fi.result);
  (* detection latency is measured in instructions from the injection *)
  let latency = report.Fi.result.Sim.instructions - at in
  Alcotest.(check bool) "latency is measured and non-negative" true (latency >= 0)

let test_stuck_clean_runs () =
  let program = exp1.Scenario.build () in
  let config = attack_config program in
  let dbase = program.Ptaint_asm.Program.data_base in
  let dlen = max (String.length program.Ptaint_asm.Program.data) 16 in
  let plan =
    [ { Fi.at = 1; fault = Fi.Stuck_clean { addr = dbase; len = dlen } };
      { Fi.at = 1;
        fault = Fi.Stuck_clean { addr = Ptaint_mem.Layout.stack_top - 16384; len = 16384 } } ]
  in
  let report = Fi.run_plan ~config ~slice:64 ~plan program in
  List.iter
    (fun (a : Fi.applied) -> Alcotest.(check bool) "stuck region armed" true a.Fi.ok)
    report.Fi.applied;
  (* whatever the verdict, the trial must terminate cleanly and the
     store must still satisfy its invariants *)
  Memory.check_invariants report.Fi.result.Sim.machine.Machine.mem

(* --- late injections land on nothing, reported not raised --- *)

let test_injection_after_exit () =
  let program = exp1.Scenario.build () in
  let config = benign_config program in
  let baseline = Sim.run ~config program in
  let late = baseline.Sim.instructions + 1000 in
  let report =
    Fi.run_plan ~config ~plan:[ { Fi.at = late; fault = Fi.Taint_wipe } ] program
  in
  (match report.Fi.applied with
   | [ { Fi.ok; _ } ] -> Alcotest.(check bool) "late injection missed" false ok
   | _ -> Alcotest.fail "expected one applied record");
  Alcotest.(check string) "run unperturbed" (fingerprint baseline)
    (fingerprint report.Fi.result)

(* --- determinism: plans are pure functions of the seed; -j free --- *)

let trial_jobs () =
  let program = exp1.Scenario.build () in
  let config = attack_config program in
  let baseline = Sim.run ~config program in
  let insns = max 2 baseline.Sim.instructions in
  let dbase = program.Ptaint_asm.Program.data_base in
  List.init 8 (fun i ->
      let g = Fi.Rng.create (1234 lxor Hashtbl.hash i) in
      let at = 1 + Fi.Rng.int g (insns - 1) in
      let plan =
        if i mod 2 = 0 then
          [ { Fi.at; fault = Fi.Flip_data { addr = dbase + Fi.Rng.int g 64; bit = Fi.Rng.int g 8 } } ]
        else [ { Fi.at; fault = Fi.Reg_taint_loss { slot = 1 + Fi.Rng.int g 31 } } ]
      in
      Campaign.job_thunk ~name:(Printf.sprintf "trial-%d" i) (fun () ->
          (Fi.run_plan ~config ~plan program).Fi.result))

let test_campaign_determinism () =
  let jprint (r : Campaign.job_result) =
    match r.Campaign.status with
    | Campaign.Finished res -> r.Campaign.name ^ " " ^ fingerprint res
    | Campaign.Failed f -> r.Campaign.name ^ " FAILED " ^ Campaign.kind_name f.Campaign.kind
  in
  let one, _ = Campaign.run ~domains:1 (trial_jobs ()) in
  let two, _ = Campaign.run ~domains:2 (trial_jobs ()) in
  Alcotest.(check (list string)) "-j 1 = -j 2"
    (List.map jprint one) (List.map jprint two);
  Alcotest.(check bool) "no harness failures" true
    (List.for_all
       (fun (r : Campaign.job_result) ->
         match r.Campaign.status with Campaign.Finished _ -> true | _ -> false)
       one)

let test_rng_and_parse () =
  let a = Fi.Rng.create 7 and b = Fi.Rng.create 7 in
  Alcotest.(check (list int)) "rng reproducible"
    (List.init 16 (fun _ -> Fi.Rng.int a 1000))
    (List.init 16 (fun _ -> Fi.Rng.int b 1000));
  let roundtrip spec =
    match Fi.parse spec with
    | Ok i -> Format.asprintf "%a" Fi.pp_injection i
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "data-flip spec"
    "data-flip@1000 into mem[0x10000000] bit 3"
    (roundtrip "data-flip@1000:0x10000000.3");
  Alcotest.(check string) "taint-wipe spec" "taint-wipe@1500 into all taint state"
    (roundtrip "taint-wipe@1500");
  (match Fi.parse "reg-taint-loss@100:29" with
   | Ok { Fi.at = 100; fault = Fi.Reg_taint_loss { slot = 29 } } -> ()
   | _ -> Alcotest.fail "reg-taint-loss spec should parse");
  match Fi.parse "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad spec must be rejected"

let () =
  Alcotest.run "fi"
    [ ( "apply",
        [ Alcotest.test_case "all models land, counters exact" `Quick test_apply_models;
          Alcotest.test_case "late injection misses" `Quick test_injection_after_exit ] );
      ( "slicing",
        [ Alcotest.test_case "sliced run = plain run" `Quick test_slice_parity;
          Alcotest.test_case "run_until exact inside superblocks" `Quick
            test_superblock_slice_exact;
          Alcotest.test_case "watchdog fires" `Quick test_watchdog_fires ] );
      ( "coverage deltas",
        [ Alcotest.test_case "taint wipe => false negative" `Quick
            test_taint_wipe_false_negative;
          Alcotest.test_case "spurious taint => false positive" `Quick
            test_spurious_taint_false_positive;
          Alcotest.test_case "stuck-at-clean terminates cleanly" `Quick
            test_stuck_clean_runs ] );
      ( "determinism",
        [ Alcotest.test_case "campaign identical at any -j" `Quick
            test_campaign_determinism;
          Alcotest.test_case "rng + spec parsing" `Quick test_rng_and_parse ] ) ]
